//! Faultload specifications.
//!
//! The paper's three faultloads (§5.4–§5.6):
//!
//! 1. one crash at t=270 s, autonomous recovery;
//! 2. two overlapped crashes at t=240 s and t=270 s, autonomous
//!    recoveries;
//! 3. two simultaneous crashes at t=240 s, one autonomous recovery and
//!    one delayed (operator-triggered) at t=390 s.
//!
//! Crash times sit inside the measurement interval so full recovery is
//! observed within it. Replica choice is pseudo-random ("chosen at
//! random", §5.5) but deterministic given the run seed.

use simnet::LinkFault;

/// How a crashed replica comes back.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecoveryKind {
    /// The local watchdog re-instantiates the server as soon as it
    /// detects the crash (no human intervention).
    Autonomous,
    /// An operator restarts the server at the given absolute time (µs)
    /// — counted as a human intervention by the autonomy measure.
    Manual {
        /// Absolute restart time (µs since run start).
        at_us: u64,
    },
    /// The machine is gone for good (hardware loss): the replica never
    /// restarts. Availability is restored only by a
    /// [`ReconfigEvent`] replacing it with a freshly provisioned node.
    Never,
}

/// One injected fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultEvent {
    /// Absolute crash time (µs since run start).
    pub at_us: u64,
    /// Which replica to crash: an index into the run's pseudo-random
    /// victim permutation (so "the first victim" and "the second
    /// victim" are distinct replicas without naming fixed ids).
    pub victim: usize,
    /// Recovery policy.
    pub recovery: RecoveryKind,
}

/// A timed fault: `fault` holds over `[at_us, until_us)`.
///
/// The paper's faultloads crash processes only (§5.1); windows extend
/// the benchmark to the other classic failure classes — partitions,
/// lossy links and faulty disks — while the consensus layer must stay
/// safe and the majority side live.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultWindow {
    /// When the fault is armed (µs since run start).
    pub at_us: u64,
    /// When it is lifted (µs).
    pub until_us: u64,
    /// What holds in between.
    pub fault: Fault,
}

/// What a [`FaultWindow`] does while it holds. Replicas are named by
/// index into the run's victim permutation, like [`FaultEvent::victim`].
#[derive(Debug, Clone, PartialEq)]
pub enum Fault {
    /// The `minority` replicas are cut off from the rest of the
    /// ensemble.
    Partition {
        /// Victim indices isolated from the majority.
        minority: Vec<usize>,
    },
    /// Every replica-to-replica link loses, duplicates and reorders
    /// messages with the given probabilities.
    Links(LinkFault),
    /// One replica's durable writes fail with probability `write_fail`
    /// (delivered as an fsync error, upon which the server fail-stops
    /// and the watchdog restarts it), and a crash tears the in-flight
    /// log append, leaving a partial record for recovery to discard.
    Disk {
        /// Which replica (an index into the victim permutation).
        victim: usize,
        /// Per-write failure probability in `[0, 1]`.
        write_fail: f64,
    },
}

/// An administrative membership change (configuration epoch bump)
/// submitted to the ensemble at a given time.
///
/// `remove` names victims by index into the run's pseudo-random victim
/// permutation (like [`FaultEvent::victim`]); `add_spares` is a count of
/// brand-new nodes the operator provisions — the driver assigns them the
/// next free node ids and boots them once the change is decided, so
/// they catch up via log shipping or snapshot transfer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReconfigEvent {
    /// When the operator submits the change (µs since run start).
    pub at_us: u64,
    /// Freshly provisioned nodes joining the ensemble.
    pub add_spares: usize,
    /// Victim-permutation indices leaving the ensemble.
    pub remove: Vec<usize>,
}

/// A faultload: the crashes, membership changes and fault windows
/// injected during the run.
///
/// ```
/// use faultload::Faultload;
/// // The paper's §5.6 faultload, scaled to a 1/3-length schedule:
/// let f = Faultload::double_crash_delayed().scaled(1, 3);
/// assert_eq!(f.events[0].at_us, 80_000_000);
/// assert_eq!(f.manual_recoveries(), 1);
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Faultload {
    /// The injected crashes, in time order.
    pub events: Vec<FaultEvent>,
    /// Administrative membership changes, if any.
    pub reconfigs: Vec<ReconfigEvent>,
    /// Timed faults, if any. Windows armed or lifted at the same
    /// instant take effect in table order.
    pub windows: Vec<FaultWindow>,
}

impl Faultload {
    /// The failure-free faultload (speedup/scaleup baselines).
    pub fn none() -> Faultload {
        Faultload::default()
    }

    /// Paper §5.4: one crash at t=270 s, autonomous recovery.
    pub fn single_crash() -> Faultload {
        Faultload::single_crash_at(270_000_000)
    }

    /// One autonomous-recovery crash of victim 0 at `at_us` — the §5.4
    /// faultload at an explicit time (comparison baselines that must
    /// align with a scenario's own incident time).
    pub fn single_crash_at(at_us: u64) -> Faultload {
        Faultload {
            events: vec![FaultEvent {
                at_us,
                victim: 0,
                recovery: RecoveryKind::Autonomous,
            }],
            ..Faultload::default()
        }
    }

    /// Paper §5.5: overlapped crashes at t=240 s and t=270 s, both
    /// autonomous.
    pub fn double_crash() -> Faultload {
        Faultload {
            events: vec![
                FaultEvent {
                    at_us: 240_000_000,
                    victim: 0,
                    recovery: RecoveryKind::Autonomous,
                },
                FaultEvent {
                    at_us: 270_000_000,
                    victim: 1,
                    recovery: RecoveryKind::Autonomous,
                },
            ],
            ..Faultload::default()
        }
    }

    /// Paper §5.6: both replicas crash at t=240 s; one recovers
    /// autonomously, the other is restarted manually at t=390 s.
    pub fn double_crash_delayed() -> Faultload {
        Faultload {
            events: vec![
                FaultEvent {
                    at_us: 240_000_000,
                    victim: 0,
                    recovery: RecoveryKind::Autonomous,
                },
                FaultEvent {
                    at_us: 240_000_000,
                    victim: 1,
                    recovery: RecoveryKind::Manual { at_us: 390_000_000 },
                },
            ],
            ..Faultload::default()
        }
    }

    /// An adversarial faultload afflicting every replica link with the
    /// given loss/duplication/reordering profile for `[at_us, until_us)`.
    pub fn lossy_links(at_us: u64, until_us: u64, fault: LinkFault) -> Faultload {
        Faultload::from_windows([(at_us, until_us, Fault::Links(fault))])
    }

    /// A flapping partition: `cycles` rounds of cutting `minority` off
    /// for `cut_us` and then healing for `heal_us`, starting at `at_us`.
    /// Repeated quorum loss and re-formation stresses leader election
    /// and collision recovery far harder than a single long partition.
    pub fn partition_flap(
        at_us: u64,
        cycles: usize,
        cut_us: u64,
        heal_us: u64,
        minority: Vec<usize>,
    ) -> Faultload {
        Faultload::from_windows((0..cycles as u64).map(|i| {
            let at_us = at_us + i * (cut_us + heal_us);
            let minority = minority.clone();
            (at_us, at_us + cut_us, Fault::Partition { minority })
        }))
    }

    /// A faulty-disk faultload: replica `victim`'s durable writes fail
    /// with probability `write_fail` during `[at_us, until_us)`, and any
    /// crash in that window tears the in-flight log append, leaving a
    /// partial record the recovery path must discard.
    pub fn faulty_disk(at_us: u64, until_us: u64, victim: usize, write_fail: f64) -> Faultload {
        Faultload::from_windows([(at_us, until_us, Fault::Disk { victim, write_fail })])
    }

    /// Everything at once, sized relative to the run length `until_us`:
    /// lossy links throughout, one faulty disk, a flapping partition,
    /// and a crash of the first victim at the two-thirds mark.
    pub fn adversarial_mix(until_us: u64) -> Faultload {
        let links = LinkFault {
            loss: 0.02,
            duplicate: 0.01,
            reorder: 0.10,
        };
        let disk = Faultload::faulty_disk(until_us / 3, until_us, 1, 0.002);
        let cycle_us = until_us / 20;
        let flap = Faultload::partition_flap(until_us / 4, 3, cycle_us, cycle_us, vec![2]);
        let mut mix = Faultload::lossy_links(0, until_us, links);
        mix.windows
            .extend(disk.windows.into_iter().chain(flap.windows));
        mix.events.push(FaultEvent {
            at_us: until_us * 2 / 3,
            victim: 0,
            recovery: RecoveryKind::Autonomous,
        });
        mix
    }

    /// A faultload of `(at_us, until_us, fault)` windows, in order.
    fn from_windows(windows: impl IntoIterator<Item = (u64, u64, Fault)>) -> Faultload {
        Faultload {
            windows: windows
                .into_iter()
                .map(|(at_us, until_us, fault)| FaultWindow {
                    at_us,
                    until_us,
                    fault,
                })
                .collect(),
            ..Faultload::default()
        }
    }

    /// A planned scale-up: provision `count` fresh nodes at `at_us` and
    /// add them to the ensemble (no one crashes).
    pub fn reconfig_add(at_us: u64, count: usize) -> Faultload {
        Faultload {
            reconfigs: vec![ReconfigEvent {
                at_us,
                add_spares: count,
                remove: Vec::new(),
            }],
            ..Faultload::default()
        }
    }

    /// A planned scale-down: remove the given victims from the ensemble
    /// at `at_us`. The removed replicas stay up but retire — the mode
    /// rule thereafter tracks the shrunk N.
    pub fn reconfig_remove(at_us: u64, remove: Vec<usize>) -> Faultload {
        Faultload {
            reconfigs: vec![ReconfigEvent {
                at_us,
                add_spares: 0,
                remove,
            }],
            ..Faultload::default()
        }
    }

    /// A planned replacement: one fresh node joins and victim `victim`
    /// leaves in a single configuration change at `at_us`.
    pub fn reconfig_replace(at_us: u64, victim: usize) -> Faultload {
        Faultload {
            reconfigs: vec![ReconfigEvent {
                at_us,
                add_spares: 1,
                remove: vec![victim],
            }],
            ..Faultload::default()
        }
    }

    /// A rolling restart (software-upgrade drill): `count` distinct
    /// replicas crash and autonomously recover one at a time, `gap_us`
    /// apart, starting at `start_us`. Membership never changes — this is
    /// the availability baseline the reconfiguration scenarios compare
    /// against.
    pub fn rolling_restart(start_us: u64, gap_us: u64, count: usize) -> Faultload {
        Faultload {
            events: (0..count)
                .map(|i| FaultEvent {
                    at_us: start_us + gap_us * i as u64,
                    victim: i,
                    recovery: RecoveryKind::Autonomous,
                })
                .collect(),
            ..Faultload::default()
        }
    }

    /// Permanent machine loss with operator reprovisioning: victim 0's
    /// hardware dies at `at_us` and never comes back; at
    /// `reprovision_at_us` the operator replaces it with a fresh node
    /// via a configuration change.
    pub fn permanent_loss(at_us: u64, reprovision_at_us: u64) -> Faultload {
        Faultload {
            events: vec![FaultEvent {
                at_us,
                victim: 0,
                recovery: RecoveryKind::Never,
            }],
            reconfigs: vec![ReconfigEvent {
                at_us: reprovision_at_us,
                add_spares: 1,
                remove: vec![0],
            }],
            ..Faultload::default()
        }
    }

    /// Rescales all event times by `num/den` (for shortened schedules:
    /// a quick run keeps the faultload's relative position in the
    /// measurement interval).
    pub fn scaled(&self, num: u64, den: u64) -> Faultload {
        Faultload {
            events: self
                .events
                .iter()
                .map(|e| FaultEvent {
                    at_us: e.at_us * num / den,
                    victim: e.victim,
                    recovery: match e.recovery {
                        RecoveryKind::Autonomous => RecoveryKind::Autonomous,
                        RecoveryKind::Manual { at_us } => RecoveryKind::Manual {
                            at_us: at_us * num / den,
                        },
                        RecoveryKind::Never => RecoveryKind::Never,
                    },
                })
                .collect(),
            reconfigs: self
                .reconfigs
                .iter()
                .map(|r| ReconfigEvent {
                    at_us: r.at_us * num / den,
                    add_spares: r.add_spares,
                    remove: r.remove.clone(),
                })
                .collect(),
            windows: self
                .windows
                .iter()
                .map(|w| FaultWindow {
                    at_us: w.at_us * num / den,
                    until_us: w.until_us * num / den,
                    fault: w.fault.clone(),
                })
                .collect(),
        }
    }

    /// Fresh nodes the driver must reserve ids for (the sum of
    /// `add_spares` over all reconfiguration events).
    pub fn spares_needed(&self) -> usize {
        self.reconfigs.iter().map(|r| r.add_spares).sum()
    }

    /// Number of injected faults.
    pub fn fault_count(&self) -> usize {
        self.events.len()
    }

    /// Number of recoveries requiring an operator (the autonomy
    /// denominator's numerator: human interventions).
    pub fn manual_recoveries(&self) -> usize {
        self.events
            .iter()
            .filter(|e| matches!(e.recovery, RecoveryKind::Manual { .. }))
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_faultloads_have_paper_times() {
        let one = Faultload::single_crash();
        assert_eq!(one.events[0].at_us, 270_000_000);
        assert_eq!(one.fault_count(), 1);
        assert_eq!(one.manual_recoveries(), 0);

        let two = Faultload::double_crash();
        assert_eq!(two.events[0].at_us, 240_000_000);
        assert_eq!(two.events[1].at_us, 270_000_000);
        assert_ne!(two.events[0].victim, two.events[1].victim);

        let delayed = Faultload::double_crash_delayed();
        assert_eq!(delayed.events[0].at_us, delayed.events[1].at_us);
        assert_eq!(delayed.manual_recoveries(), 1);
        assert!(matches!(
            delayed.events[1].recovery,
            RecoveryKind::Manual { at_us: 390_000_000 }
        ));
    }

    #[test]
    fn scaling_preserves_structure() {
        let f = Faultload::double_crash_delayed().scaled(1, 3);
        assert_eq!(f.events[0].at_us, 80_000_000);
        assert!(matches!(
            f.events[1].recovery,
            RecoveryKind::Manual { at_us: 130_000_000 }
        ));
    }

    #[test]
    fn none_is_empty() {
        assert_eq!(Faultload::none().fault_count(), 0);
        assert_eq!(Faultload::none().spares_needed(), 0);
    }

    #[test]
    fn reconfig_constructors_scale_and_count_spares() {
        let add = Faultload::reconfig_add(90_000_000, 2).scaled(1, 3);
        assert_eq!(add.reconfigs[0].at_us, 30_000_000);
        assert_eq!(add.spares_needed(), 2);

        let replace = Faultload::reconfig_replace(60_000_000, 1);
        assert_eq!(replace.spares_needed(), 1);
        assert_eq!(replace.reconfigs[0].remove, vec![1]);

        let rolling = Faultload::rolling_restart(30_000_000, 20_000_000, 3);
        assert_eq!(rolling.fault_count(), 3);
        assert_eq!(rolling.events[2].at_us, 70_000_000);
        let victims: Vec<usize> = rolling.events.iter().map(|e| e.victim).collect();
        assert_eq!(victims, vec![0, 1, 2], "one replica at a time");
        assert_eq!(rolling.spares_needed(), 0, "upgrade keeps membership");

        let loss = Faultload::permanent_loss(40_000_000, 100_000_000).scaled(1, 2);
        assert!(matches!(loss.events[0].recovery, RecoveryKind::Never));
        assert_eq!(loss.reconfigs[0].at_us, 50_000_000);
        assert_eq!(loss.spares_needed(), 1);
        assert_eq!(loss.manual_recoveries(), 0, "no restart ever happens");
    }

    #[test]
    fn partition_flap_builds_disjoint_cycles() {
        let f = Faultload::partition_flap(100, 3, 10, 20, vec![1, 2]);
        let spans: Vec<(u64, u64)> = f.windows.iter().map(|w| (w.at_us, w.until_us)).collect();
        assert_eq!(spans, [(100, 110), (130, 140), (160, 170)]);
        let minority = vec![1, 2];
        assert!(f.windows.iter().all(|w| w.fault
            == Fault::Partition {
                minority: minority.clone()
            }));
    }

    #[test]
    fn adversarial_constructors_scale() {
        let spec = LinkFault {
            loss: 0.1,
            duplicate: 0.05,
            reorder: 0.2,
        };
        let f = Faultload::lossy_links(30_000_000, 90_000_000, spec).scaled(1, 3);
        assert_eq!(f.windows[0].at_us, 10_000_000);
        assert_eq!(f.windows[0].until_us, 30_000_000);
        assert_eq!(
            f.windows[0].fault,
            Fault::Links(spec),
            "profile survives scaling"
        );

        let d = Faultload::faulty_disk(60_000_000, 120_000_000, 1, 0.01).scaled(1, 2);
        assert_eq!(
            (d.windows[0].at_us, d.windows[0].until_us),
            (30_000_000, 60_000_000)
        );
        let (victim, write_fail) = (1, 0.01);
        assert_eq!(d.windows[0].fault, Fault::Disk { victim, write_fail });
    }

    #[test]
    fn adversarial_mix_covers_all_fault_classes() {
        let f = Faultload::adversarial_mix(60_000_000);
        assert_eq!(f.fault_count(), 1);
        assert!(f.events[0].at_us < 60_000_000);
        // Links, the disk, then the partition's cycles; distinct victims:
        // the crashed replica, the faulty disk, and the partitioned
        // minority do not pile onto one index.
        let kinds: Vec<&Fault> = f.windows.iter().map(|w| &w.fault).collect();
        assert!(matches!(
            kinds[..],
            [Fault::Links(_), Fault::Disk { victim: 1, .. }, ..]
        ));
        let minority = vec![2];
        assert!(kinds[2..].iter().all(|k| **k
            == Fault::Partition {
                minority: minority.clone()
            }));
        assert!(!minority.contains(&f.events[0].victim) && f.events[0].victim != 1);
    }
}
