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

/// A network partition injected for a bounded interval.
///
/// The paper's faultloads crash processes only; partitions extend the
/// benchmark to the other classic failure class (the consensus layer
/// must stay safe and the majority side live).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PartitionEvent {
    /// When the links are cut (µs).
    pub at_us: u64,
    /// When they heal (µs).
    pub heal_at_us: u64,
    /// Victim indices (into the run's victim permutation) isolated from
    /// the rest of the ensemble.
    pub minority: Vec<usize>,
}

/// Adversarial per-link message faults applied to every server–server
/// link for a bounded interval: probabilistic loss, duplication, and
/// reordering (a message held back so later ones overtake it; the
/// network model fixes how long).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkFaultSpec {
    /// Per-message loss probability in `[0, 1]`.
    pub loss: f64,
    /// Per-message duplication probability in `[0, 1]`.
    pub duplicate: f64,
    /// Per-message reorder probability in `[0, 1]`.
    pub reorder: f64,
}

/// An interval during which [`LinkFaultSpec`] faults afflict all
/// replica-to-replica links.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NetFaultEvent {
    /// When the faults start (µs since run start).
    pub at_us: u64,
    /// When the links return to nominal behaviour (µs).
    pub until_us: u64,
    /// The fault profile.
    pub fault: LinkFaultSpec,
}

/// An interval during which one replica's disk misbehaves: durable
/// writes may fail (delivered as an fsync error, upon which the server
/// fail-stops and the watchdog restarts it), and a crash tears the
/// in-flight log append, leaving a partial record for recovery to
/// detect and discard.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DiskFaultEvent {
    /// When the disk starts misbehaving (µs since run start).
    pub at_us: u64,
    /// When the disk returns to nominal behaviour (µs).
    pub until_us: u64,
    /// Which replica (an index into the run's victim permutation).
    pub victim: usize,
    /// Per-write failure probability in `[0, 1]`.
    pub write_fail: f64,
    /// Whether crashes tear the in-flight log append.
    pub torn_tail: bool,
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

/// A faultload: a list of crash events injected during the run.
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
    /// The injected faults, in time order.
    pub events: Vec<FaultEvent>,
    /// Network partitions, if any.
    pub partitions: Vec<PartitionEvent>,
    /// Adversarial link-fault intervals, if any.
    pub net_faults: Vec<NetFaultEvent>,
    /// Disk-fault intervals, if any.
    pub disk_faults: Vec<DiskFaultEvent>,
    /// Administrative membership changes, if any.
    pub reconfigs: Vec<ReconfigEvent>,
}

impl Faultload {
    /// The failure-free faultload (speedup/scaleup baselines).
    pub fn none() -> Faultload {
        Faultload::default()
    }

    /// A beyond-the-paper faultload: isolate `minority` replicas for
    /// `[at_us, heal_at_us)` without crashing anyone.
    pub fn partition(at_us: u64, heal_at_us: u64, minority: Vec<usize>) -> Faultload {
        Faultload {
            partitions: vec![PartitionEvent {
                at_us,
                heal_at_us,
                minority,
            }],
            ..Faultload::default()
        }
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
    pub fn lossy_links(at_us: u64, until_us: u64, fault: LinkFaultSpec) -> Faultload {
        Faultload {
            net_faults: vec![NetFaultEvent {
                at_us,
                until_us,
                fault,
            }],
            ..Faultload::default()
        }
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
        let mut partitions = Vec::with_capacity(cycles);
        let mut t = at_us;
        for _ in 0..cycles {
            partitions.push(PartitionEvent {
                at_us: t,
                heal_at_us: t + cut_us,
                minority: minority.clone(),
            });
            t += cut_us + heal_us;
        }
        Faultload {
            partitions,
            ..Faultload::default()
        }
    }

    /// A faulty-disk faultload: replica `victim`'s durable writes fail
    /// with probability `write_fail` during `[at_us, until_us)`, and any
    /// crash in that window tears the in-flight log append, leaving a
    /// partial record the recovery path must discard.
    pub fn faulty_disk(at_us: u64, until_us: u64, victim: usize, write_fail: f64) -> Faultload {
        Faultload {
            disk_faults: vec![DiskFaultEvent {
                at_us,
                until_us,
                victim,
                write_fail,
                torn_tail: true,
            }],
            ..Faultload::default()
        }
    }

    /// Everything at once, sized relative to the run length `until_us`:
    /// lossy links throughout, a flapping partition, one faulty disk,
    /// and a crash of the first victim at the two-thirds mark.
    pub fn adversarial_mix(until_us: u64) -> Faultload {
        Faultload {
            events: vec![FaultEvent {
                at_us: until_us * 2 / 3,
                victim: 0,
                recovery: RecoveryKind::Autonomous,
            }],
            partitions: Faultload::partition_flap(
                until_us / 4,
                3,
                until_us / 20,
                until_us / 20,
                vec![2],
            )
            .partitions,
            net_faults: vec![NetFaultEvent {
                at_us: 0,
                until_us,
                fault: LinkFaultSpec {
                    loss: 0.02,
                    duplicate: 0.01,
                    reorder: 0.10,
                },
            }],
            disk_faults: vec![DiskFaultEvent {
                at_us: until_us / 3,
                until_us,
                victim: 1,
                write_fail: 0.002,
                torn_tail: true,
            }],
            reconfigs: Vec::new(),
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
            partitions: self
                .partitions
                .iter()
                .map(|p| PartitionEvent {
                    at_us: p.at_us * num / den,
                    heal_at_us: p.heal_at_us * num / den,
                    minority: p.minority.clone(),
                })
                .collect(),
            net_faults: self
                .net_faults
                .iter()
                .map(|f| NetFaultEvent {
                    at_us: f.at_us * num / den,
                    until_us: f.until_us * num / den,
                    fault: f.fault,
                })
                .collect(),
            disk_faults: self
                .disk_faults
                .iter()
                .map(|d| DiskFaultEvent {
                    at_us: d.at_us * num / den,
                    until_us: d.until_us * num / den,
                    ..*d
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
        assert_eq!(f.partitions.len(), 3);
        assert_eq!(f.partitions[0].at_us, 100);
        assert_eq!(f.partitions[0].heal_at_us, 110);
        assert_eq!(f.partitions[1].at_us, 130);
        assert_eq!(f.partitions[2].at_us, 160);
        for w in f.partitions.windows(2) {
            assert!(w[0].heal_at_us <= w[1].at_us, "cycles must not overlap");
        }
    }

    #[test]
    fn adversarial_constructors_scale() {
        let spec = LinkFaultSpec {
            loss: 0.1,
            duplicate: 0.05,
            reorder: 0.2,
        };
        let f = Faultload::lossy_links(30_000_000, 90_000_000, spec).scaled(1, 3);
        assert_eq!(f.net_faults[0].at_us, 10_000_000);
        assert_eq!(f.net_faults[0].until_us, 30_000_000);
        assert_eq!(f.net_faults[0].fault, spec, "profile survives scaling");

        let d = Faultload::faulty_disk(60_000_000, 120_000_000, 1, 0.01).scaled(1, 2);
        assert_eq!(d.disk_faults[0].at_us, 30_000_000);
        assert_eq!(d.disk_faults[0].until_us, 60_000_000);
        assert!(d.disk_faults[0].torn_tail);
        assert_eq!(d.disk_faults[0].victim, 1);
    }

    #[test]
    fn adversarial_mix_covers_all_fault_classes() {
        let f = Faultload::adversarial_mix(60_000_000);
        assert_eq!(f.fault_count(), 1);
        assert!(!f.partitions.is_empty());
        assert!(!f.net_faults.is_empty());
        assert!(!f.disk_faults.is_empty());
        assert!(f.events[0].at_us < 60_000_000);
        // Distinct victims: the crashed replica, the faulty disk, and
        // the partitioned minority do not pile onto one index.
        assert_ne!(f.events[0].victim, f.disk_faults[0].victim);
        assert!(!f.partitions[0].minority.contains(&f.events[0].victim));
    }
}
