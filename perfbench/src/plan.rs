//! The read mix. `daemon_poll` sends it to `mantra daemon` over HTTP; the
//! cycle workloads make the same reads in-process on each episode's final
//! state. One plan for both, so both measure the same reads.

use std::time::Duration;

use crate::stats::Rng;

/// The status endpoints, taken in turn by status-class requests. Each
/// reads under the engine lock.
pub const STATUS: [&str; 4] = ["/health", "/stats/usage", "/anomalies", "/parse"];

/// Replays go to one of the first this many cycle times.
pub const REPLAY_GRID: u64 = 32;

/// One request of the mix.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Query {
    /// A status endpoint, as an index into [`STATUS`].
    Status(usize),
    /// `/replay?at=` the `k`-th cycle time, `k` in `1..=REPLAY_GRID`.
    Replay(u64),
}

/// One request and when it is due, from the start of the load.
#[derive(Clone, Copy, Debug)]
pub struct Planned {
    pub due: Duration,
    pub query: Query,
}

/// The open-loop plan: one request per `1/rate` slot over `load`, due at
/// a seeded random point of its slot. Two in three are status requests
/// (the four endpoints in turn), one in three a replay at a random grid
/// time: the status class gets the larger share because its tail, where
/// the engine-lock waits show, needs the samples.
pub fn schedule(rate: f64, load: Duration, seed: u64) -> Vec<Planned> {
    let mut rng = Rng::new(seed ^ 0xda);
    let mut statuses = 0usize;
    (0..(load.as_secs_f64() * rate) as u64)
        .map(|slot| {
            let due = Duration::from_secs_f64((slot as f64 + rng.unit()) / rate);
            let query = if rng.unit() < 1.0 / 3.0 {
                Query::Replay(rng.range(1, REPLAY_GRID))
            } else {
                statuses += 1;
                Query::Status((statuses - 1) % STATUS.len())
            };
            Planned { due, query }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_plan_is_fixed_by_its_seed_and_takes_the_endpoints_in_turn() {
        let a = schedule(20.0, Duration::from_secs(30), 3);
        let b = schedule(20.0, Duration::from_secs(30), 3);
        assert_eq!(a.len(), 600);
        assert!(a
            .iter()
            .zip(&b)
            .all(|(x, y)| x.due == y.due && x.query == y.query));
        let statuses: Vec<usize> = a
            .iter()
            .filter_map(|p| match p.query {
                Query::Status(i) => Some(i),
                Query::Replay(_) => None,
            })
            .collect();
        assert!(statuses.iter().enumerate().all(|(n, i)| *i == n % 4));
        assert!(a.windows(2).all(|w| w[0].due < w[1].due));
    }
}
