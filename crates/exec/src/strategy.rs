//! Timestamp-management strategies — the paper's §5 and §6 scenarios.
//!
//! The four experimental lines of the evaluation map onto millstream as:
//!
//! | Line | Paper | millstream |
//! |------|-------|------------|
//! | A | internally timestamped, no ETS | [`EtsPolicy::None`] |
//! | B | periodic ETS (heartbeats, per Gigascope) | [`EtsPolicy::None`] in the executor + periodic punctuation injection by the driver (`millstream-sim`) |
//! | C | **on-demand ETS** | [`EtsPolicy::OnDemand`] — generated inside the backtrack mechanism |
//! | D | latent timestamps | `Union::latent` + no ETS |
//!
//! For externally timestamped streams the on-demand value follows §5's
//! skew-bound rule: with maximum inter-arrival skew δ, last tuple timestamp
//! `t` seen at wall instant `a`, an ETS generated at instant `now` may
//! promise `t + (now − a) − δ` — every future tuple must carry at least
//! that timestamp.

use millstream_buffer::punctuation_is_stale;
use millstream_types::{TimeDelta, Timestamp, TimestampKind};

use crate::graph::SourceState;

/// How a starved source generates Enabling Time-Stamps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EtsPolicy {
    /// Never generate ETS (experiment lines A, B and D).
    None,
    /// Generate an ETS on demand when backtracking reaches the starved
    /// source (line C). For internally timestamped streams the ETS is the
    /// current clock reading; for externally timestamped streams the
    /// skew-bound rule applies with the given maximum skew δ; latent
    /// streams never generate ETS.
    OnDemand {
        /// Maximum inter-arrival timestamp skew δ for external streams.
        external_max_skew: TimeDelta,
    },
}

impl EtsPolicy {
    /// On-demand policy for internal timestamps (δ unused).
    pub fn on_demand() -> Self {
        EtsPolicy::OnDemand {
            external_max_skew: TimeDelta::ZERO,
        }
    }

    /// Computes the ETS value for a starved source at clock instant `now`,
    /// or `None` when no (useful) ETS can be generated.
    ///
    /// The value is monotonized against both the source's previous ETS and
    /// its last data timestamp, and suppressed entirely when it would not
    /// advance the source's high-water mark (a stale ETS carries no new
    /// information and would only burn CPU).
    pub fn ets_for(&self, source: &SourceState, now: Timestamp) -> Option<Timestamp> {
        let EtsPolicy::OnDemand { external_max_skew } = self else {
            return None;
        };
        if !source.serves_ets {
            // Nothing downstream can use the punctuation.
            return None;
        }
        if source.closed {
            // End-of-stream was declared: the Timestamp::MAX punctuation
            // already promised everything an ETS could.
            return None;
        }
        let candidate = match source.kind {
            TimestampKind::Latent => return None,
            TimestampKind::Internal => now,
            TimestampKind::External => {
                // t + τ − δ, where τ is the time elapsed since the last
                // arrival. Before any arrival we have no application-time
                // baseline, so no ETS can be promised.
                let t = source.last_data_ts?;
                let a = source.last_data_arrival?;
                t.saturating_add(now.duration_since(a))
                    .saturating_sub(*external_max_skew)
            }
        };
        let floor = source
            .ets_high_water
            .max(source.last_data_ts)
            .unwrap_or(Timestamp::ZERO);
        if candidate <= floor && source.ets_high_water.is_some() {
            // Would not advance the frontier.
            return None;
        }
        Some(candidate.max(floor))
    }
}

/// Gates a sharded **on-demand frontier advance** — the exchange-edge
/// analogue of on-demand ETS (see [`crate::ShardedExecutor`]).
///
/// Where the serial backtrack mechanism asks a starved source's register
/// for an ETS, a starved shard replica (or the coordinator's merge stage)
/// asks the shared frontier table for the source's global frontier `f` and
/// injects it as a heartbeat. The same staleness discipline as
/// [`EtsPolicy::ets_for`] applies: an advance that would not move the
/// consumer's high-water marks carries no new information and is
/// suppressed rather than burning a run cycle.
///
/// Returns the heartbeat timestamp to inject, or `None` when `frontier`
/// is unknown or stale against the local data/punctuation high waters
/// ([`punctuation_is_stale`]: equal to the data high water is still
/// useful, equal to the punctuation high water is not).
pub fn frontier_advance(
    frontier: Option<Timestamp>,
    data_high_water: Option<Timestamp>,
    punct_high_water: Option<Timestamp>,
) -> Option<Timestamp> {
    frontier.filter(|&f| !punctuation_is_stale(f, data_high_water, punct_high_water))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{BufferId, NodeId};
    use millstream_types::Schema;

    fn source(kind: TimestampKind) -> SourceState {
        SourceState {
            name: "s".into(),
            schema: Schema::empty(),
            kind,
            buffer: BufferId(0),
            consumer: NodeId(0),
            last_data_ts: None,
            last_data_arrival: None,
            ets_high_water: None,
            ets_budget_used: false,
            serves_ets: true,
            ets_generated: 0,
            ingested: 0,
            shed_tuples: 0,
            closed: false,
        }
    }

    fn ts(v: u64) -> Timestamp {
        Timestamp::from_micros(v)
    }

    #[test]
    fn none_policy_never_generates() {
        let s = source(TimestampKind::Internal);
        assert_eq!(EtsPolicy::None.ets_for(&s, ts(100)), None);
    }

    #[test]
    fn internal_ets_is_clock_now() {
        let s = source(TimestampKind::Internal);
        assert_eq!(EtsPolicy::on_demand().ets_for(&s, ts(100)), Some(ts(100)));
    }

    #[test]
    fn latent_streams_get_no_ets() {
        let s = source(TimestampKind::Latent);
        assert_eq!(EtsPolicy::on_demand().ets_for(&s, ts(100)), None);
    }

    #[test]
    fn external_needs_a_baseline() {
        let s = source(TimestampKind::External);
        let p = EtsPolicy::OnDemand {
            external_max_skew: TimeDelta::from_micros(10),
        };
        assert_eq!(p.ets_for(&s, ts(100)), None, "no arrival yet");
    }

    #[test]
    fn external_skew_bound_rule() {
        let mut s = source(TimestampKind::External);
        // Last tuple: application time 50, arrived at wall 60.
        s.last_data_ts = Some(ts(50));
        s.last_data_arrival = Some(ts(60));
        let p = EtsPolicy::OnDemand {
            external_max_skew: TimeDelta::from_micros(10),
        };
        // now=100: elapsed τ=40 → ETS = 50 + 40 − 10 = 80.
        assert_eq!(p.ets_for(&s, ts(100)), Some(ts(80)));
        // Huge skew floors at the last data timestamp.
        let p = EtsPolicy::OnDemand {
            external_max_skew: TimeDelta::from_micros(1_000),
        };
        assert_eq!(p.ets_for(&s, ts(100)), Some(ts(50)));
    }

    #[test]
    fn sources_off_iwp_paths_never_answer() {
        let mut s = source(TimestampKind::Internal);
        s.serves_ets = false;
        assert_eq!(EtsPolicy::on_demand().ets_for(&s, ts(100)), None);
    }

    #[test]
    fn stale_ets_is_suppressed() {
        let mut s = source(TimestampKind::Internal);
        s.ets_high_water = Some(ts(100));
        // Clock has not advanced past the previous ETS.
        assert_eq!(EtsPolicy::on_demand().ets_for(&s, ts(100)), None);
        assert_eq!(EtsPolicy::on_demand().ets_for(&s, ts(101)), Some(ts(101)));
    }

    #[test]
    fn frontier_advance_gating() {
        // Unknown frontier: nothing to promise.
        assert_eq!(frontier_advance(None, Some(ts(5)), None), None);
        // Fresh frontier on a virgin replica: inject it.
        assert_eq!(frontier_advance(Some(ts(10)), None, None), Some(ts(10)));
        // Equal to the data high water: still useful (promises closure).
        assert_eq!(
            frontier_advance(Some(ts(10)), Some(ts(10)), None),
            Some(ts(10))
        );
        // Below routed data: stale.
        assert_eq!(frontier_advance(Some(ts(9)), Some(ts(10)), None), None);
        // Equal to the punctuation high water: the promise already exists.
        assert_eq!(frontier_advance(Some(ts(10)), None, Some(ts(10))), None);
        assert_eq!(
            frontier_advance(Some(ts(11)), None, Some(ts(10))),
            Some(ts(11))
        );
    }
}
