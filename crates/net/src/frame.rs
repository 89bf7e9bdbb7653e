//! The millstream wire format: length-prefixed binary frames.
//!
//! Every frame on the wire is `u32 length (LE) | u8 kind | body`, where
//! `length` counts the kind byte plus the body. The decoder is total: any
//! byte string either decodes to a [`Frame`] or returns a structured
//! [`Error`] — truncated, oversized and garbage inputs must never panic
//! (enforced by `tests/frame_fuzz.rs` over the checked-in seed corpus).
//!
//! ## Frame kinds
//!
//! | kind | frame        | direction           | body                                    |
//! |------|--------------|---------------------|-----------------------------------------|
//! | 1    | `Hello`      | client → server     | version, role, stream, schema?, resume  |
//! | 2    | `HelloAck`   | server → client     | version, schema, resume_ts              |
//! | 3    | `Data`       | producer → server   | seq, tuple                              |
//! | 4    | `Heartbeat`  | producer → server   | seq, ts                                 |
//! | 5    | `Close`      | producer → server   | seq                                     |
//! | 6    | `Ack`        | server → producer   | seq (cumulative), source high-water ts  |
//! | 7    | `Output`     | server → subscriber | tuple                                   |
//! | 8    | `Error`      | server → client     | code, message                           |
//! | 9    | `Bye`        | either              | —                                       |
//! | 10   | `Feedback`   | server → client     | pressure level, window, dropped count   |
//!
//! Timestamps travel as microseconds (`u64` LE), matching
//! [`Timestamp::as_micros`]. A tuple is `u64 ts | u8 flags` with bit 0 set
//! for punctuation; data tuples append `u16 n | n values`, each value a
//! one-byte tag (0 null, 1 int, 2 float, 3 bool, 4 string) and its
//! payload.

use std::io::{self, Read, Write};

use millstream_types::{DataType, Error, Field, Result, Row, Schema, Timestamp, Tuple, Value};

/// The only protocol version this build speaks. [`Frame::Hello`] carries
/// the client's version; a server seeing any other value must answer with
/// an [`ErrorCode::Unsupported`] error frame and close.
pub const PROTOCOL_VERSION: u8 = 1;

/// Hard ceiling on `length`: one frame never exceeds 1 MiB. A larger
/// prefix is rejected before any allocation, so a hostile peer cannot
/// balloon server memory with a forged header.
pub const MAX_FRAME_LEN: u32 = 1 << 20;

/// What a connecting client wants from the server.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// Pushes tuples/heartbeats into one named source stream.
    Producer,
    /// Receives the query's sink output as [`Frame::Output`] frames.
    Subscriber,
}

/// Machine-readable reason on an [`Frame::Error`] frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// Malformed or out-of-contract frame (bad seq, wrong role, ...).
    Protocol,
    /// Version or schema negotiation failed.
    Unsupported,
    /// The engine rejected the operation (closed source, planning, ...).
    Engine,
    /// A strict-mode sentinel invariant tripped at the socket boundary.
    Invariant,
    /// The subscriber fell behind its bounded buffer and was dropped.
    Overflow,
}

impl ErrorCode {
    fn to_u16(self) -> u16 {
        match self {
            ErrorCode::Protocol => 1,
            ErrorCode::Unsupported => 2,
            ErrorCode::Engine => 3,
            ErrorCode::Invariant => 4,
            ErrorCode::Overflow => 5,
        }
    }

    fn from_u16(v: u16) -> Result<Self> {
        Ok(match v {
            1 => ErrorCode::Protocol,
            2 => ErrorCode::Unsupported,
            3 => ErrorCode::Engine,
            4 => ErrorCode::Invariant,
            5 => ErrorCode::Overflow,
            other => return Err(wire(format!("unknown error code {other}"))),
        })
    }
}

/// One decoded wire frame.
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    /// Connection opener: negotiate version, role and schema.
    Hello {
        /// Client protocol version ([`PROTOCOL_VERSION`]).
        version: u8,
        /// Producer or subscriber.
        role: Role,
        /// Stream name (producers) — ignored for subscribers.
        stream: String,
        /// Producer's claimed schema; `None` adopts the server's schema
        /// (returned in [`Frame::HelloAck`]).
        schema: Option<Schema>,
        /// Highest timestamp the client believes was durably acked, for
        /// reconnect bookkeeping (0 on a fresh session).
        resume_hint: u64,
    },
    /// Server's accept: the authoritative schema and resume point.
    HelloAck {
        /// Server protocol version.
        version: u8,
        /// Authoritative schema of the stream (producer) or of the query
        /// output (subscriber).
        schema: Schema,
        /// The source's data high-water mark in micros; retransmitted
        /// tuples at or below it are duplicates the server will drop.
        resume_ts: u64,
    },
    /// One data tuple, sequence-numbered within the connection.
    Data {
        /// Strictly increasing per connection.
        seq: u64,
        /// The payload tuple (must be data, not punctuation).
        tuple: Tuple,
    },
    /// An explicit source heartbeat (wire form of `ingest_heartbeat`).
    Heartbeat {
        /// Strictly increasing per connection, shared with `Data`.
        seq: u64,
        /// Heartbeat timestamp.
        ts: Timestamp,
    },
    /// End-of-stream for the producer's source.
    Close {
        /// Strictly increasing per connection, shared with `Data`.
        seq: u64,
    },
    /// Cumulative acknowledgement: all frames with `seq' <= seq` are
    /// processed; `high_water` is the source's data high-water in micros.
    Ack {
        /// Highest contiguously processed sequence number.
        seq: u64,
        /// Source data high-water mark (micros) after processing.
        high_water: u64,
    },
    /// One sink-output tuple streamed to a subscriber.
    Output {
        /// The delivered tuple (punctuation marks travel too, so a
        /// subscriber can observe final-ETS propagation).
        tuple: Tuple,
    },
    /// Terminal error; the sender closes the connection after it.
    Error {
        /// Machine-readable reason.
        code: ErrorCode,
        /// Human-readable detail.
        message: String,
    },
    /// Graceful end of the connection.
    Bye,
    /// Feedback punctuation flowing *against* the data direction: the
    /// server tells a producer how hard to throttle, or a subscriber how
    /// many queued outputs were shed on its behalf. Never terminal — the
    /// connection continues after it.
    Feedback {
        /// Engine/queue pressure level (0 normal, 1 high, 2 critical).
        /// Informational: receivers act on `window` and `dropped` only.
        level: u8,
        /// Requested producer send window (max unacked frames); `0` means
        /// "no limit requested" — the producer restores its own window.
        window: u64,
        /// Cumulative count of this subscriber's outputs shed server-side
        /// (always `0` on the producer path).
        dropped: u64,
    },
}

fn wire(msg: impl Into<String>) -> Error {
    Error::runtime(format!("wire: {}", msg.into()))
}

// ---------------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------------

fn put_u16(buf: &mut Vec<u8>, v: u16) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_str(buf: &mut Vec<u8>, s: &str) -> Result<()> {
    let bytes = s.as_bytes();
    if bytes.len() > u16::MAX as usize {
        return Err(wire(format!(
            "string of {} bytes exceeds u16 length",
            bytes.len()
        )));
    }
    put_u16(buf, bytes.len() as u16);
    buf.extend_from_slice(bytes);
    Ok(())
}

fn put_schema(buf: &mut Vec<u8>, schema: &Schema) -> Result<()> {
    if schema.len() >= u16::MAX as usize {
        return Err(wire("schema too wide"));
    }
    put_u16(buf, schema.len() as u16);
    for f in schema.fields() {
        put_str(buf, &f.name)?;
        buf.push(match f.data_type {
            DataType::Int => 1,
            DataType::Float => 2,
            DataType::Bool => 3,
            DataType::Str => 4,
        });
    }
    Ok(())
}

fn put_value(buf: &mut Vec<u8>, v: &Value) -> Result<()> {
    match v {
        Value::Null => buf.push(0),
        Value::Int(i) => {
            buf.push(1);
            put_u64(buf, *i as u64);
        }
        Value::Float(f) => {
            buf.push(2);
            put_u64(buf, f.to_bits());
        }
        Value::Bool(b) => {
            buf.push(3);
            buf.push(u8::from(*b));
        }
        Value::Str(s) => {
            buf.push(4);
            put_str(buf, s)?;
        }
    }
    Ok(())
}

fn put_tuple(buf: &mut Vec<u8>, t: &Tuple) -> Result<()> {
    put_u64(buf, t.ts.as_micros());
    match t.values() {
        None => buf.push(1), // punctuation flag
        Some(vals) => {
            buf.push(0);
            if vals.len() >= u16::MAX as usize {
                return Err(wire("row too wide"));
            }
            put_u16(buf, vals.len() as u16);
            for v in vals {
                put_value(buf, v)?;
            }
        }
    }
    Ok(())
}

impl Frame {
    /// Encodes the frame with its `u32` length prefix, ready to write.
    pub fn encode(&self) -> Result<Vec<u8>> {
        let mut buf = Vec::new();
        self.encode_into(&mut buf)?;
        Ok(buf)
    }

    /// Appends the encoded frame (length prefix included) to `buf`, so a
    /// caller can reuse one buffer across frames. On error `buf` is left
    /// exactly as it was.
    pub fn encode_into(&self, buf: &mut Vec<u8>) -> Result<()> {
        let start = buf.len();
        buf.extend_from_slice(&[0; 4]); // length backfilled below
        let framed = self.put_body(buf).and_then(|()| {
            let len = (buf.len() - start - 4) as u32;
            if len > MAX_FRAME_LEN {
                return Err(wire(format!("frame of {len} bytes exceeds MAX_FRAME_LEN")));
            }
            buf[start..start + 4].copy_from_slice(&len.to_le_bytes());
            Ok(())
        });
        if framed.is_err() {
            buf.truncate(start);
        }
        framed
    }

    /// Appends `kind | body`.
    fn put_body(&self, buf: &mut Vec<u8>) -> Result<()> {
        match self {
            Frame::Hello {
                version,
                role,
                stream,
                schema,
                resume_hint,
            } => {
                buf.push(1);
                buf.push(*version);
                buf.push(match role {
                    Role::Producer => 0,
                    Role::Subscriber => 1,
                });
                put_str(buf, stream)?;
                match schema {
                    None => buf.push(0),
                    Some(s) => {
                        buf.push(1);
                        put_schema(buf, s)?;
                    }
                }
                put_u64(buf, *resume_hint);
            }
            Frame::HelloAck {
                version,
                schema,
                resume_ts,
            } => {
                buf.push(2);
                buf.push(*version);
                put_schema(buf, schema)?;
                put_u64(buf, *resume_ts);
            }
            Frame::Data { seq, tuple } => {
                buf.push(3);
                put_u64(buf, *seq);
                put_tuple(buf, tuple)?;
            }
            Frame::Heartbeat { seq, ts } => {
                buf.push(4);
                put_u64(buf, *seq);
                put_u64(buf, ts.as_micros());
            }
            Frame::Close { seq } => {
                buf.push(5);
                put_u64(buf, *seq);
            }
            Frame::Ack { seq, high_water } => {
                buf.push(6);
                put_u64(buf, *seq);
                put_u64(buf, *high_water);
            }
            Frame::Output { tuple } => {
                buf.push(7);
                put_tuple(buf, tuple)?;
            }
            Frame::Error { code, message } => {
                buf.push(8);
                put_u16(buf, code.to_u16());
                put_str(buf, message)?;
            }
            Frame::Bye => buf.push(9),
            Frame::Feedback {
                level,
                window,
                dropped,
            } => {
                buf.push(10);
                buf.push(*level);
                put_u64(buf, *window);
                put_u64(buf, *dropped);
            }
        }
        Ok(())
    }

    /// Decodes one frame body (`kind | body`, the length prefix already
    /// stripped). Total: every input returns `Ok` or a structured error.
    pub fn decode(body: &[u8]) -> Result<Frame> {
        let mut c = Cursor { buf: body, pos: 0 };
        let kind = c.u8()?;
        let frame = match kind {
            1 => {
                let version = c.u8()?;
                let role = match c.u8()? {
                    0 => Role::Producer,
                    1 => Role::Subscriber,
                    other => return Err(wire(format!("unknown role {other}"))),
                };
                let stream = c.string()?;
                let schema = match c.u8()? {
                    0 => None,
                    1 => Some(c.schema()?),
                    other => return Err(wire(format!("bad schema marker {other}"))),
                };
                Frame::Hello {
                    version,
                    role,
                    stream,
                    schema,
                    resume_hint: c.u64()?,
                }
            }
            2 => Frame::HelloAck {
                version: c.u8()?,
                schema: c.schema()?,
                resume_ts: c.u64()?,
            },
            3 => Frame::Data {
                seq: c.u64()?,
                tuple: c.tuple()?,
            },
            4 => Frame::Heartbeat {
                seq: c.u64()?,
                ts: Timestamp::from_micros(c.u64()?),
            },
            5 => Frame::Close { seq: c.u64()? },
            6 => Frame::Ack {
                seq: c.u64()?,
                high_water: c.u64()?,
            },
            7 => Frame::Output { tuple: c.tuple()? },
            8 => Frame::Error {
                code: ErrorCode::from_u16(c.u16()?)?,
                message: c.string()?,
            },
            9 => Frame::Bye,
            10 => Frame::Feedback {
                level: c.u8()?,
                window: c.u64()?,
                dropped: c.u64()?,
            },
            other => return Err(wire(format!("unknown frame kind {other}"))),
        };
        if c.pos != body.len() {
            return Err(wire(format!(
                "{} trailing bytes after frame kind {kind}",
                body.len() - c.pos
            )));
        }
        Ok(frame)
    }
}

/// Bounds-checked reader over a frame body.
struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl Cursor<'_> {
    fn take(&mut self, n: usize) -> Result<&[u8]> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or_else(|| wire("truncated frame"))?;
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16> {
        let b = self.take(2)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    fn u64(&mut self) -> Result<u64> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes(b.try_into().expect("8 bytes")))
    }

    fn string(&mut self) -> Result<String> {
        let len = self.u16()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| wire("string is not UTF-8"))
    }

    fn schema(&mut self) -> Result<Schema> {
        let n = self.u16()? as usize;
        // A field needs >= 3 bytes on the wire; reject absurd counts
        // before allocating.
        if n > self.buf.len().saturating_sub(self.pos) {
            return Err(wire("schema field count exceeds frame"));
        }
        let mut fields = Vec::with_capacity(n);
        for _ in 0..n {
            let name = self.string()?;
            let ty = match self.u8()? {
                1 => DataType::Int,
                2 => DataType::Float,
                3 => DataType::Bool,
                4 => DataType::Str,
                other => return Err(wire(format!("unknown data type tag {other}"))),
            };
            fields.push(Field::new(name, ty));
        }
        Ok(Schema::new(fields))
    }

    fn value(&mut self) -> Result<Value> {
        Ok(match self.u8()? {
            0 => Value::Null,
            1 => Value::Int(self.u64()? as i64),
            2 => Value::Float(f64::from_bits(self.u64()?)),
            3 => match self.u8()? {
                0 => Value::Bool(false),
                1 => Value::Bool(true),
                other => return Err(wire(format!("bad bool byte {other}"))),
            },
            4 => Value::str_uninterned(self.string()?),
            other => return Err(wire(format!("unknown value tag {other}"))),
        })
    }

    fn tuple(&mut self) -> Result<Tuple> {
        let ts = Timestamp::from_micros(self.u64()?);
        match self.u8()? {
            1 => Ok(Tuple::punctuation(ts)),
            0 => {
                let n = self.u16()? as usize;
                if n > self.buf.len().saturating_sub(self.pos) {
                    return Err(wire("row width exceeds frame"));
                }
                let mut row = Row::builder(n);
                for _ in 0..n {
                    row.push(self.value()?);
                }
                Ok(Tuple::data(ts, row.finish()))
            }
            other => Err(wire(format!("bad tuple flags {other}"))),
        }
    }
}

// ---------------------------------------------------------------------------
// Stream I/O
// ---------------------------------------------------------------------------

/// Writes one frame, flushing so it hits the wire immediately (the
/// protocol is latency-sensitive: an unflushed heartbeat is a silent
/// connection).
pub fn write_frame<W: Write>(w: &mut W, frame: &Frame) -> Result<()> {
    let bytes = frame.encode()?;
    w.write_all(&bytes)
        .and_then(|()| w.flush())
        .map_err(|e| wire(format!("write failed: {e}")))
}

/// What one [`FrameReader::poll`] produced.
#[derive(Debug, PartialEq)]
pub enum ReadOutcome {
    /// A complete frame arrived.
    Frame(Frame),
    /// The peer closed the stream cleanly (EOF on a frame boundary).
    Eof,
    /// The read timed out; any partial frame is retained for the next
    /// poll, so timeouts never corrupt framing.
    Timeout,
}

/// Bytes one [`FrameReader`] read asks the socket for. The receive buffer
/// is allocated at this size on the first read and grows by exactly this
/// much only when it is full of one frame still arriving, so it never
/// holds more than the bytes received plus one chunk.
const READ_CHUNK: usize = 64 * 1024;

/// Incremental frame reader: reads once, decodes everything buffered.
///
/// Each connection keeps one receive buffer. [`poll`] returns the next
/// complete frame already in it and calls `read` only when none is, so one
/// readiness event that delivered many frames costs one `read`, not two
/// per frame. The server reads nonblocking sockets, so a readiness
/// boundary can fall anywhere — between the length prefix and the body
/// included. A partial frame stays buffered: [`poll`] returns
/// [`ReadOutcome::Timeout`] and the next call resumes where the bytes
/// stopped.
///
/// [`poll`]: FrameReader::poll
#[derive(Debug, Default)]
pub struct FrameReader {
    /// Receive buffer; its length is the allocated size, and
    /// `buf[head..tail]` are the received bytes not yet decoded.
    buf: Vec<u8>,
    head: usize,
    tail: usize,
}

impl FrameReader {
    /// A reader with nothing buffered (the buffer is allocated on the
    /// first read).
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns the next complete frame, reading from `r` only when no
    /// complete frame is buffered.
    pub fn poll<R: Read>(&mut self, r: &mut R) -> Result<ReadOutcome> {
        loop {
            if let Some(frame) = self.next_buffered()? {
                return Ok(ReadOutcome::Frame(frame));
            }
            self.make_room();
            match r.read(&mut self.buf[self.tail..]) {
                Ok(0) => {
                    return if self.head == self.tail {
                        Ok(ReadOutcome::Eof)
                    } else {
                        let have = &self.buf[self.head..self.tail];
                        let need = match have.get(..4) {
                            Some(h) => {
                                4 + u32::from_le_bytes(h.try_into().expect("4 bytes")) as usize
                            }
                            None => 4,
                        };
                        Err(wire(format!(
                            "connection closed mid-frame ({} of {need} bytes)",
                            have.len()
                        )))
                    };
                }
                Ok(n) => self.tail += n,
                Err(e)
                    if e.kind() == io::ErrorKind::WouldBlock
                        || e.kind() == io::ErrorKind::TimedOut =>
                {
                    return Ok(ReadOutcome::Timeout);
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(wire(format!("read failed: {e}"))),
            }
        }
    }

    /// Decodes the frame at the front of the buffer if all of it has
    /// arrived. The length prefix is checked as soon as its four bytes are
    /// in, before the buffer grows for the body.
    fn next_buffered(&mut self) -> Result<Option<Frame>> {
        let have = &self.buf[self.head..self.tail];
        let Some(header) = have.get(..4) else {
            return Ok(None);
        };
        let len = u32::from_le_bytes(header.try_into().expect("4 bytes"));
        if len == 0 {
            return Err(wire("zero-length frame"));
        }
        if len > MAX_FRAME_LEN {
            return Err(wire(format!(
                "frame length {len} exceeds MAX_FRAME_LEN ({MAX_FRAME_LEN})"
            )));
        }
        let end = 4 + len as usize;
        let Some(body) = have.get(4..end) else {
            return Ok(None);
        };
        let frame = Frame::decode(body)?;
        self.head += end;
        Ok(Some(frame))
    }

    /// Moves the undecoded bytes to the front, then makes sure the next
    /// read has room: grow by one chunk if the buffer is full, or give a
    /// large decoded frame's room back once the rest fits in one chunk.
    fn make_room(&mut self) {
        self.buf.copy_within(self.head..self.tail, 0);
        self.tail -= self.head;
        self.head = 0;
        if self.tail == self.buf.len() {
            self.buf.reserve_exact(READ_CHUNK);
            self.buf.resize(self.buf.len() + READ_CHUNK, 0);
        } else if self.buf.len() > READ_CHUNK && self.tail < READ_CHUNK {
            self.buf.truncate(READ_CHUNK);
            self.buf.shrink_to_fit();
        }
    }

    /// Blocking convenience: polls until a frame or EOF (treats timeouts
    /// as retries). Used by the client, which sets generous socket
    /// deadlines of its own.
    pub fn read_blocking<R: Read>(&mut self, r: &mut R) -> Result<Option<Frame>> {
        loop {
            match self.poll(r)? {
                ReadOutcome::Frame(f) => return Ok(Some(f)),
                ReadOutcome::Eof => return Ok(None),
                ReadOutcome::Timeout => continue,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Round-trips `f`, and checks that appending it to `scratch` — a
    /// reused buffer still holding earlier frames — adds exactly the bytes
    /// `encode` returns.
    fn roundtrip(f: Frame, scratch: &mut Vec<u8>) {
        let bytes = f.encode().expect("encode");
        let len = u32::from_le_bytes(bytes[0..4].try_into().unwrap()) as usize;
        assert_eq!(len + 4, bytes.len(), "length prefix covers kind+body");
        assert_eq!(Frame::decode(&bytes[4..]).expect("decode"), f);
        let start = scratch.len();
        f.encode_into(scratch).expect("encode_into");
        assert_eq!(&scratch[start..], &bytes[..], "encode_into ≡ encode");
    }

    fn schema() -> Schema {
        Schema::new(vec![
            Field::new("v", DataType::Int),
            Field::new("label", DataType::Str),
        ])
    }

    #[test]
    fn all_frames_roundtrip() {
        // Every frame is also appended to one dirty scratch buffer, reused
        // across the whole list.
        let mut scratch = vec![0xEE; 3];
        let mut roundtrip = |f| roundtrip(f, &mut scratch);
        roundtrip(Frame::Hello {
            version: PROTOCOL_VERSION,
            role: Role::Producer,
            stream: "S1".into(),
            schema: Some(schema()),
            resume_hint: 42,
        });
        roundtrip(Frame::Hello {
            version: PROTOCOL_VERSION,
            role: Role::Subscriber,
            stream: String::new(),
            schema: None,
            resume_hint: 0,
        });
        roundtrip(Frame::HelloAck {
            version: PROTOCOL_VERSION,
            schema: schema(),
            resume_ts: 7,
        });
        roundtrip(Frame::Data {
            seq: 9,
            tuple: Tuple::data(
                Timestamp::from_micros(123),
                vec![
                    Value::Int(-5),
                    Value::Float(2.5),
                    Value::Bool(true),
                    Value::Null,
                    Value::str("hé"),
                ],
            ),
        });
        roundtrip(Frame::Heartbeat {
            seq: 10,
            ts: Timestamp::from_micros(456),
        });
        roundtrip(Frame::Close { seq: 11 });
        roundtrip(Frame::Ack {
            seq: 11,
            high_water: 123,
        });
        roundtrip(Frame::Output {
            tuple: Tuple::punctuation(Timestamp::MAX),
        });
        roundtrip(Frame::Error {
            code: ErrorCode::Overflow,
            message: "slow subscriber".into(),
        });
        roundtrip(Frame::Bye);
        roundtrip(Frame::Feedback {
            level: 2,
            window: 1,
            dropped: 37,
        });
        // A failed encode leaves the scratch exactly as it was.
        let before = scratch.clone();
        let too_long = Frame::Error {
            code: ErrorCode::Protocol,
            message: "x".repeat(1 << 17),
        };
        assert!(too_long.encode_into(&mut scratch).is_err());
        assert_eq!(scratch, before);
    }

    #[test]
    fn truncated_bodies_error() {
        let full = Frame::Data {
            seq: 1,
            tuple: Tuple::data(Timestamp::from_micros(5), vec![Value::Int(1)]),
        }
        .encode()
        .unwrap();
        for cut in 1..full.len() - 4 {
            let body = &full[4..4 + cut];
            assert!(Frame::decode(body).is_err(), "cut at {cut} must error");
        }
    }

    #[test]
    fn trailing_garbage_errors() {
        let mut bytes = Frame::Bye.encode().unwrap();
        bytes.push(0xAB);
        assert!(Frame::decode(&bytes[4..]).is_err());
    }

    #[test]
    fn hostile_counts_do_not_allocate() {
        // kind=3 Data, seq, ts, flags=0, claimed row width u16::MAX - 1
        // with no payload behind it.
        let mut body = vec![3u8];
        body.extend_from_slice(&1u64.to_le_bytes());
        body.extend_from_slice(&2u64.to_le_bytes());
        body.push(0);
        body.extend_from_slice(&(u16::MAX - 1).to_le_bytes());
        assert!(Frame::decode(&body).is_err());
    }

    #[test]
    fn reader_reassembles_split_frames() {
        let f = Frame::Heartbeat {
            seq: 3,
            ts: Timestamp::from_micros(99),
        };
        let bytes = f.encode().unwrap();
        // Feed the bytes one at a time through a reader that times out
        // between each byte.
        struct Drip<'a> {
            bytes: &'a [u8],
            pos: usize,
            give: bool,
        }
        impl Read for Drip<'_> {
            fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
                if self.pos >= self.bytes.len() {
                    return Ok(0);
                }
                if !self.give {
                    self.give = true;
                    return Err(io::Error::new(io::ErrorKind::WouldBlock, "later"));
                }
                self.give = false;
                out[0] = self.bytes[self.pos];
                self.pos += 1;
                Ok(1)
            }
        }
        let mut drip = Drip {
            bytes: &bytes,
            pos: 0,
            give: false,
        };
        let mut reader = FrameReader::new();
        let mut timeouts = 0;
        loop {
            match reader.poll(&mut drip).expect("no error") {
                ReadOutcome::Frame(got) => {
                    assert_eq!(got, f);
                    break;
                }
                ReadOutcome::Timeout => timeouts += 1,
                ReadOutcome::Eof => panic!("ended before frame completed"),
            }
        }
        assert_eq!(timeouts, bytes.len(), "one stall per byte");
        assert_eq!(reader.poll(&mut drip).unwrap(), ReadOutcome::Eof);
    }

    #[test]
    fn oversized_length_prefix_rejected() {
        let mut reader = FrameReader::new();
        let mut bytes: &[u8] = &[0xFF, 0xFF, 0xFF, 0xFF, 9];
        assert!(reader.poll(&mut bytes).is_err());
    }

    #[test]
    fn eof_mid_frame_is_an_error() {
        let full = Frame::Close { seq: 1 }.encode().unwrap();
        let mut reader = FrameReader::new();
        let mut short: &[u8] = &full[..full.len() - 2];
        assert!(reader.poll(&mut short).is_err());
    }

    /// Hands out at most `step` bytes per read, then `WouldBlock` once the
    /// bytes run out (or EOF, if `eof`), counting reads.
    struct Peer<'a> {
        bytes: &'a [u8],
        step: usize,
        eof: bool,
        reads: usize,
    }

    impl Read for Peer<'_> {
        fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
            self.reads += 1;
            if self.bytes.is_empty() && !self.eof {
                return Err(io::Error::new(io::ErrorKind::WouldBlock, "later"));
            }
            let n = out.len().min(self.step).min(self.bytes.len());
            out[..n].copy_from_slice(&self.bytes[..n]);
            self.bytes = &self.bytes[n..];
            Ok(n)
        }
    }

    #[test]
    fn forged_header_reserves_nothing() {
        // A header claiming the largest legal frame, then silence: the
        // reader must not reserve the claimed length.
        let header = MAX_FRAME_LEN.to_le_bytes();
        let mut peer = Peer {
            bytes: &header,
            step: usize::MAX,
            eof: false,
            reads: 0,
        };
        let mut reader = FrameReader::new();
        for _ in 0..8 {
            assert_eq!(reader.poll(&mut peer).unwrap(), ReadOutcome::Timeout);
        }
        assert!(reader.buf.capacity() <= READ_CHUNK);

        // A ~200 KiB frame dribbled in 1 KiB reads grows the buffer with
        // the bytes received, decodes byte-identical, and gives the room
        // back once it is consumed.
        let values = (0..4u8)
            .map(|i| Value::str_uninterned(String::from(char::from(b'a' + i)).repeat(50_000)))
            .collect::<Vec<_>>();
        let big = Frame::Data {
            seq: 1,
            tuple: Tuple::data(Timestamp::from_micros(7), values),
        };
        let bytes = big.encode().unwrap();
        assert!(bytes.len() > 200_000);
        let mut reader = FrameReader::new();
        let mut received = 0;
        let mut got = None;
        for chunk in bytes.chunks(1024) {
            // One readiness event: this chunk, then `WouldBlock`.
            let mut peer = Peer {
                bytes: chunk,
                step: usize::MAX,
                eof: false,
                reads: 0,
            };
            let outcome = reader.poll(&mut peer).unwrap();
            received += chunk.len();
            assert!(reader.buf.capacity() <= received + READ_CHUNK);
            match outcome {
                ReadOutcome::Timeout => assert!(received < bytes.len()),
                ReadOutcome::Frame(f) => got = Some(f),
                ReadOutcome::Eof => panic!("no EOF mid-frame"),
            }
        }
        assert_eq!(got.expect("the frame").encode().unwrap(), bytes);
        let mut closed = Peer {
            bytes: &[],
            step: usize::MAX,
            eof: true,
            reads: 0,
        };
        assert_eq!(reader.poll(&mut closed).unwrap(), ReadOutcome::Eof);
        assert!(reader.buf.capacity() <= READ_CHUNK);
    }

    #[test]
    fn back_to_back_frames_share_reads() {
        let frames: Vec<Frame> = (0..1000u64)
            .map(|seq| Frame::Data {
                seq,
                tuple: Tuple::data(
                    Timestamp::from_micros(seq),
                    vec![Value::Int(seq as i64), Value::str("w".repeat(100))],
                ),
            })
            .collect();
        let mut bytes = Vec::new();
        for f in &frames {
            f.encode_into(&mut bytes).unwrap();
        }
        let mut peer = Peer {
            bytes: &bytes,
            step: usize::MAX,
            eof: true,
            reads: 0,
        };
        let mut reader = FrameReader::new();
        let mut got = Vec::new();
        while let Some(f) = reader.read_blocking(&mut peer).unwrap() {
            got.push(f);
        }
        assert_eq!(got, frames);
        // Over two chunks of frames: a read per chunk, plus the EOF read.
        assert!(bytes.len() > 2 * READ_CHUNK);
        assert!(
            peer.reads <= bytes.len().div_ceil(READ_CHUNK) + 1,
            "{} reads for {} bytes",
            peer.reads,
            bytes.len()
        );
    }
}
