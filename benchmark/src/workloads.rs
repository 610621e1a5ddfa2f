//! The three workloads. Every parameter is a literal here, so a change
//! to the program cannot change the load it is measured under.
//!
//! All three are closed loops, as TPC-W prescribes: each emulated
//! browser sends its next request after the reply plus a 1 s mean think
//! time. 10 000 items, 5 client nodes, the LAN delays of
//! `SimConfig::default()`; the load is generated inside the
//! single-threaded simulation, so one process and one thread do all the
//! work. One *rep* is one `run_experiment` call; a run makes `reps` of
//! them on seeds derived from `--seed`.

use cluster::ExperimentConfig;
use faultload::{FaultEvent, Faultload, RecoveryKind};
use tpcw::{Profile, Schedule};

pub struct Workload {
    pub name: &'static str,
    pub replicas: usize,
    /// Planned reps per run. Sized so that they take about 20 s of host
    /// time on the 2-core reference box.
    pub reps: usize,
    /// Crashes the faultload injects (each must recover inside the rep).
    pub crashes: usize,
    config: fn() -> ExperimentConfig,
}

impl Workload {
    /// The rep's configuration under `seed`, untraced.
    pub fn config(&self, seed: u64) -> ExperimentConfig {
        let mut config = (self.config)();
        config.seed = seed;
        config
    }

    /// The same configuration with a zero-length schedule: everything
    /// `run_experiment` does before the first event.
    pub fn setup_config(&self) -> ExperimentConfig {
        let mut config = (self.config)();
        config.schedule = schedule(0, 0, 0);
        config.faultload = Faultload::none();
        config
    }
}

/// Seed of rep `i` of a run started with `--seed seed`. The stride keeps
/// the reps of neighbouring `--seed` values disjoint.
pub fn rep_seed(seed: u64, i: usize) -> u64 {
    seed.wrapping_add(i as u64 * 1_000_003)
}

fn schedule(ramp_up_s: u64, interval_s: u64, ramp_down_s: u64) -> Schedule {
    Schedule {
        ramp_up_us: ramp_up_s * 1_000_000,
        interval_us: interval_s * 1_000_000,
        ramp_down_us: ramp_down_s * 1_000_000,
    }
}

fn base(replicas: usize, profile: Profile, ebs: u32, rbes: usize) -> ExperimentConfig {
    let mut config = ExperimentConfig::paper(replicas);
    config.profile = profile;
    config.ebs = ebs;
    config.population_items = 10_000;
    config.rbes = rbes;
    config.think_us = 1_000_000;
    config.client_nodes = 5;
    config.watchdog_delay_us = 3_000_000;
    config.batch_max_updates = 1;
    config.batch_window_us = 0;
    config
}

/// Browsing mix (95 % reads) at about half capacity: latency is service
/// time, not queueing; `tpcw` store reads and `cluster` page handling do
/// the work and consensus is nearly idle.
fn browse_steady() -> ExperimentConfig {
    let mut config = base(5, Profile::Browsing, 50, 1_000);
    config.schedule = schedule(5, 20, 1);
    config
}

/// Ordering mix (50 % updates) on 8 replicas at 5× capacity with group
/// commit: the consensus hot path at its ceiling.
fn order_sat_b8() -> ExperimentConfig {
    let mut config = base(8, Profile::Ordering, 50, 5_220);
    config.batch_max_updates = 8;
    config.batch_window_us = 80_000;
    config.schedule = schedule(5, 10, 1);
    config
}

/// Shopping mix (20 % updates), unbatched as in the paper, with two
/// autonomous-recovery crashes one second apart: two of five replicas
/// are down together, so the survivors fall back from fast to classic
/// rounds, and both victims reload a 100 MB checkpoint, replay their log
/// and catch up from their peers inside the interval.
fn shop_2crash_b1() -> ExperimentConfig {
    let mut config = base(5, Profile::Shopping, 10, 1_000);
    config.schedule = schedule(5, 35, 2);
    config.faultload = Faultload {
        events: vec![
            FaultEvent {
                at_us: 10_000_000,
                victim: 0,
                recovery: RecoveryKind::Autonomous,
            },
            FaultEvent {
                at_us: 11_000_000,
                victim: 1,
                recovery: RecoveryKind::Autonomous,
            },
        ],
        ..Faultload::none()
    };
    config
}

pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "browse_steady",
        replicas: 5,
        reps: 5,
        crashes: 0,
        config: browse_steady,
    },
    Workload {
        name: "order_sat_b8",
        replicas: 8,
        reps: 7,
        crashes: 0,
        config: order_sat_b8,
    },
    Workload {
        name: "shop_2crash_b1",
        replicas: 5,
        reps: 4,
        crashes: 2,
        config: shop_2crash_b1,
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn configs_match_their_table_rows() {
        for w in &WORKLOADS {
            let c = w.config(9);
            assert_eq!(c.seed, 9);
            assert_eq!(c.replicas, w.replicas, "{}", w.name);
            assert_eq!(c.faultload.events.len(), w.crashes, "{}", w.name);
            assert!(!c.trace.enabled);
            // Every crash leaves room to restart and recover before the
            // interval ends.
            for e in &c.faultload.events {
                assert!(c.schedule.in_interval(e.at_us + 20_000_000), "{}", w.name);
            }
            assert_eq!(w.setup_config().schedule.total_us(), 0);
        }
    }

    #[test]
    fn rep_seeds_of_neighbouring_runs_are_disjoint() {
        let a: Vec<u64> = (0..8).map(|i| rep_seed(42, i)).collect();
        let b: Vec<u64> = (0..8).map(|i| rep_seed(43, i)).collect();
        assert_eq!(a[0], 42);
        assert!(a.iter().all(|s| !b.contains(s)));
    }
}
