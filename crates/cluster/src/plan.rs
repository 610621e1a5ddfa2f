//! The operator's plan for one run.
//!
//! A [`faultload::Faultload`] names victims by index into a pseudo-random
//! permutation and spares by count; the plan resolves both against the
//! run's seed and lays every prescribed step out as one time-ordered
//! queue of [`Action`]s, beside the two ledgers those actions fill in
//! as the testbed applies them (recovery spans, reconfiguration
//! incidents). It is pure data — it never sees the engine — so its
//! ordering rules are testable without a run.

use std::collections::VecDeque;

use faultload::{Fault, RecoveryKind, RecoverySpan};
use rand::seq::SliceRandom;
use rand::SeedableRng;

use crate::experiment::{ExperimentConfig, ReconfigIncident};

/// One step the operator (or the watchdog acting for them) takes.
#[derive(Debug, PartialEq)]
pub(crate) enum Action {
    /// Crash the server of recovery span `span`.
    Crash { span: usize },
    /// Re-instantiate it.
    Restart { span: usize },
    /// Arm the fault of window `window`.
    Arm { window: usize },
    /// Lift it.
    Lift { window: usize },
    /// Submit membership change `incident` at some live replica: the
    /// first attempt, which is the one the injection log records.
    Reconfig { incident: usize },
    /// Submit it again after no leader accepted it.
    RetryReconfig { incident: usize },
    /// Poll for membership change `incident` taking effect, then
    /// provision its joiners and take its removed nodes out of rotation.
    AwaitEpoch { incident: usize },
    /// Feed the online monitor one scrape of the cluster.
    Scrape,
}

/// Everything a faultload prescribes for one run, resolved and ordered.
#[derive(Debug)]
pub(crate) struct Plan {
    /// One span per crash, planned or induced; the testbed stamps the
    /// times it observes.
    pub spans: Vec<RecoverySpan>,
    /// One incident per membership change, with its concrete node ids.
    pub incidents: Vec<ReconfigIncident>,
    /// Each fault window's fault, its victims resolved to server ids.
    pub windows: Vec<Fault>,
    /// Pending actions, earliest first; same-instant actions run in the
    /// order they were scheduled.
    queue: VecDeque<(u64, Action)>,
    watchdog_delay_us: u64,
}

impl Plan {
    /// Resolves `config`'s faultload for its ensemble, seed and watchdog
    /// delay, beside the monitor's scrapes. Actions prescribed for the
    /// same instant run scrapes first, so a tick that coincides with a
    /// fault samples the pre-fault state, then crashes, then
    /// reconfigurations, then windows in table order.
    pub fn new(config: &ExperimentConfig) -> Plan {
        let (faultload, watchdog_delay_us) = (&config.faultload, config.watchdog_delay_us);
        // Distinct victims, picked pseudo-randomly (paper §5.5:
        // "replicas to be crashed were chosen at random").
        let mut victim_rng = rand::rngs::StdRng::seed_from_u64(config.seed ^ 0xfau64);
        let mut victims: Vec<usize> = (0..config.replicas).collect();
        victims.shuffle(&mut victim_rng);
        let victim = |v: usize| victims[v % victims.len()];

        let mut plan = Plan {
            spans: Vec::new(),
            incidents: Vec::new(),
            windows: Vec::new(),
            queue: VecDeque::new(),
            watchdog_delay_us,
        };
        // One scrape per tick of the measurement interval, its end
        // included: ramp-up and ramp-down never feed the rule windows.
        if let Some(monitor) = &config.monitor {
            let (start, end) = (
                config.schedule.measure_start_us(),
                config.schedule.measure_end_us(),
            );
            let interval = monitor.scrape_interval_us.max(1);
            let ticks = std::iter::successors(Some(start), |t| Some(t + interval));
            for at_us in ticks.take_while(|t| *t <= end) {
                plan.schedule(at_us, Action::Scrape);
            }
        }
        for event in &faultload.events {
            let manual = matches!(event.recovery, RecoveryKind::Manual { .. });
            let span = plan.open_span(victim(event.victim), event.at_us, manual);
            plan.schedule(event.at_us, Action::Crash { span });
            match event.recovery {
                RecoveryKind::Autonomous => {
                    plan.schedule(event.at_us + watchdog_delay_us, Action::Restart { span })
                }
                RecoveryKind::Manual { at_us } => plan.schedule(at_us, Action::Restart { span }),
                // Permanent hardware loss: only a reconfiguration replacing
                // the machine restores the ensemble's spare capacity.
                RecoveryKind::Never => {}
            }
        }
        // Spare node ids follow the initial replicas, handed out in order;
        // removals go through the victim permutation.
        let mut next_spare = config.replicas;
        for rc in &faultload.reconfigs {
            let incident = plan.incidents.len();
            plan.incidents.push(ReconfigIncident {
                submitted_at_us: rc.at_us,
                accepted_at_us: None,
                completed_at_us: None,
                target_epoch: 0,
                add: (next_spare..next_spare + rc.add_spares).collect(),
                remove: rc.remove.iter().map(|v| victim(*v)).collect(),
            });
            next_spare += rc.add_spares;
            plan.schedule(rc.at_us, Action::Reconfig { incident });
        }
        for w in &faultload.windows {
            let window = plan.windows.len();
            plan.windows.push(match w.fault {
                Fault::Partition { ref minority } => Fault::Partition {
                    minority: minority.iter().map(|v| victim(*v)).collect(),
                },
                Fault::Links(links) => Fault::Links(links),
                Fault::Disk {
                    victim: v,
                    write_fail,
                } => Fault::Disk {
                    victim: victim(v),
                    write_fail,
                },
            });
            plan.schedule(w.at_us, Action::Arm { window });
            plan.schedule(w.until_us, Action::Lift { window });
        }
        plan
    }

    /// When the next pending action is due (µs).
    pub fn next_due(&self) -> Option<u64> {
        self.queue.front().map(|(at, _)| *at)
    }

    /// Takes the next pending action if it is due at `now_us`.
    pub fn pop_due(&mut self, now_us: u64) -> Option<Action> {
        if self.next_due()? > now_us {
            return None;
        }
        self.queue.pop_front().map(|(_, action)| action)
    }

    /// Schedules `action` for `at_us`, behind every pending action due
    /// at or before then.
    pub fn schedule(&mut self, at_us: u64, action: Action) {
        let pos = self.queue.partition_point(|(at, _)| *at <= at_us);
        self.queue.insert(pos, (at_us, action));
    }

    fn open_span(&mut self, server: usize, crash_at: u64, manual: bool) -> usize {
        self.spans.push(RecoverySpan {
            server,
            crash_at,
            restart_at: 0,
            recovered_at: None,
            manual,
        });
        self.spans.len() - 1
    }

    /// A crash nobody planned (a failed fsync is fail-stop): opens its
    /// span and has the watchdog re-instantiate the server.
    pub fn unplanned_crash(&mut self, server: usize, now_us: u64) {
        let span = self.open_span(server, now_us, false);
        self.schedule(now_us + self.watchdog_delay_us, Action::Restart { span });
    }

    /// The span whose restart started `server`'s current incarnation
    /// (its latest restart); `None` for a server still on its first.
    pub fn incarnation_span(&mut self, server: usize) -> Option<&mut RecoverySpan> {
        self.spans
            .iter_mut()
            .filter(|span| span.server == server && span.restart_at > 0)
            .max_by_key(|span| span.restart_at)
    }
}

#[cfg(test)]
mod tests {
    use faultload::{FaultEvent, FaultWindow, Faultload, ReconfigEvent};
    use simnet::LinkFault;

    use super::*;

    const WATCHDOG_US: u64 = 3_000_000;

    fn plan(replicas: usize, faultload: Faultload) -> Plan {
        let mut config = ExperimentConfig::quick(replicas, tpcw::Profile::Shopping);
        config.faultload = faultload;
        config.watchdog_delay_us = WATCHDOG_US;
        Plan::new(&config)
    }

    /// Every pending action with its due time, in the order a run would
    /// apply them.
    fn drain(plan: &mut Plan) -> Vec<(u64, Action)> {
        let mut out = Vec::new();
        while let Some(at) = plan.next_due() {
            assert_eq!(plan.pop_due(at.saturating_sub(1)), None, "not due yet");
            out.push((at, plan.pop_due(at).expect("due now")));
        }
        out
    }

    fn crash(at_us: u64, victim: usize, recovery: RecoveryKind) -> FaultEvent {
        FaultEvent {
            at_us,
            victim,
            recovery,
        }
    }

    #[test]
    fn same_instant_actions_run_crashes_reconfigs_then_windows_in_table_order() {
        // Everything the faultload can prescribe, all at 10 s and all
        // lifted at 20 s. Windows, reconfigurations and crashes are
        // listed in the reverse of the order a run applies them; the
        // windows themselves run in table order, whatever their kind.
        // The monitor scrapes the measurement interval [10 s, 20 s] at
        // both ends, ahead of everything else due then.
        let (t, u) = (10_000_000, 20_000_000);
        let window = |fault| FaultWindow {
            at_us: t,
            until_us: u,
            fault,
        };
        let loss = LinkFault {
            loss: 0.1,
            ..LinkFault::default()
        };
        let (victim, write_fail) = (2, 0.5);
        let faultload = Faultload {
            windows: vec![
                window(Fault::Partition { minority: vec![1] }),
                window(Fault::Disk { victim, write_fail }),
                window(Fault::Links(loss)),
            ],
            reconfigs: Faultload::reconfig_add(t, 1).reconfigs,
            events: vec![
                crash(t, 0, RecoveryKind::Manual { at_us: u }),
                crash(t, 3, RecoveryKind::Autonomous),
            ],
        };
        let mut config = ExperimentConfig::quick(5, tpcw::Profile::Shopping);
        (config.faultload, config.watchdog_delay_us) = (faultload, WATCHDOG_US);
        (config.schedule.ramp_up_us, config.schedule.interval_us) = (t, u - t);
        config.monitor = Some(obs::MonitorConfig {
            scrape_interval_us: u - t,
            ..obs::MonitorConfig::default()
        });
        let mut plan = Plan::new(&config);
        assert!(matches!(
            plan.windows[..],
            [Fault::Partition { .. }, Fault::Disk { .. }, Fault::Links(_)]
        ));
        let (arm, lift) = (
            |window| Action::Arm { window },
            |window| Action::Lift { window },
        );
        assert_eq!(
            drain(&mut plan),
            [
                (t, Action::Scrape),
                (t, Action::Crash { span: 0 }),
                (t, Action::Crash { span: 1 }),
                (t, Action::Reconfig { incident: 0 }),
                (t, arm(0)),
                (t, arm(1)),
                (t, arm(2)),
                (t + WATCHDOG_US, Action::Restart { span: 1 }),
                (u, Action::Scrape),
                (u, Action::Restart { span: 0 }),
                (u, lift(0)),
                (u, lift(1)),
                (u, lift(2)),
            ]
        );
    }

    #[test]
    fn schedule_lands_behind_every_pending_action_due_at_or_before() {
        let mut plan = plan(5, Faultload::partition_flap(10, 2, 10, 0, vec![]));
        let poll = |incident| Action::AwaitEpoch { incident };
        plan.schedule(20, poll(1));
        plan.schedule(30, poll(2));
        plan.schedule(25, poll(3));
        assert_eq!(plan.next_due(), Some(10));
        assert_eq!(plan.pop_due(9), None);
        let due_by_20: Vec<Action> = std::iter::from_fn(|| plan.pop_due(20)).collect();
        assert_eq!(
            due_by_20,
            [
                Action::Arm { window: 0 },
                Action::Lift { window: 0 },
                Action::Arm { window: 1 },
                poll(1)
            ]
        );
        // The clock stands at 20: whatever is scheduled now, even for an
        // instant already gone, runs after what has run and in the order
        // it was scheduled.
        plan.schedule(5, poll(4));
        plan.schedule(20, poll(5));
        assert_eq!(
            drain(&mut plan),
            [
                (5, poll(4)),
                (20, poll(5)),
                (25, poll(3)),
                (30, Action::Lift { window: 1 }),
                (30, poll(2))
            ]
        );
    }

    #[test]
    fn victims_wrap_around_the_ensemble_and_spares_follow_it() {
        let n = 5;
        let mut faultload = Faultload::permanent_loss(10, 50);
        faultload.events.extend([
            crash(20, n, RecoveryKind::Autonomous),
            crash(30, 1, RecoveryKind::Autonomous),
        ]);
        faultload.reconfigs.push(ReconfigEvent {
            at_us: 60,
            add_spares: 2,
            remove: vec![],
        });
        faultload
            .reconfigs
            .extend(Faultload::reconfig_replace(70, n + 1).reconfigs);
        let plan = plan(n, faultload);

        let servers: Vec<usize> = plan.spans.iter().map(|span| span.server).collect();
        assert_eq!(servers[0], servers[1], "victim n is victim 0");
        assert_ne!(servers[0], servers[2], "victims 0 and 1 are distinct");
        assert!(servers.iter().all(|server| *server < n));
        // The lost machine is the one the operator replaces; spare ids
        // start at n and are handed out in submission order.
        let changes: Vec<(&[usize], &[usize])> = plan
            .incidents
            .iter()
            .map(|i| (i.add.as_slice(), i.remove.as_slice()))
            .collect();
        assert_eq!(
            changes,
            [
                (&[n][..], &servers[..1]),
                (&[n + 1, n + 2][..], &[][..]),
                (&[n + 3][..], &servers[2..])
            ]
        );
    }

    #[test]
    fn restarts_come_from_the_watchdog_the_operator_or_nobody() {
        let mut plan = plan(
            5,
            Faultload {
                events: vec![
                    crash(10, 0, RecoveryKind::Autonomous),
                    crash(20, 1, RecoveryKind::Manual { at_us: 90 }),
                    crash(30, 2, RecoveryKind::Never),
                ],
                ..Faultload::default()
            },
        );
        let manual: Vec<bool> = plan.spans.iter().map(|span| span.manual).collect();
        assert_eq!(manual, [false, true, false]);
        assert_eq!(
            drain(&mut plan),
            [
                (10, Action::Crash { span: 0 }),
                (20, Action::Crash { span: 1 }),
                (30, Action::Crash { span: 2 }),
                (90, Action::Restart { span: 1 }),
                (10 + WATCHDOG_US, Action::Restart { span: 0 }),
            ]
        );
        // A fail-stop nobody planned gets a span of its own and the
        // watchdog's restart.
        plan.unplanned_crash(4, 500);
        assert_eq!((plan.spans[3].server, plan.spans[3].crash_at), (4, 500));
        assert_eq!(
            drain(&mut plan),
            [(500 + WATCHDOG_US, Action::Restart { span: 3 })]
        );
    }

    #[test]
    fn an_incarnation_belongs_to_the_latest_restart_of_its_server() {
        let twice = |at_us| crash(at_us, 0, RecoveryKind::Autonomous);
        let mut plan = plan(
            5,
            Faultload {
                events: vec![
                    twice(10),
                    crash(20, 1, RecoveryKind::Autonomous),
                    twice(30),
                    twice(40),
                ],
                ..Faultload::default()
            },
        );
        let (server, other) = (plan.spans[0].server, plan.spans[1].server);
        assert!(plan.incarnation_span(server).is_none(), "first incarnation");
        // Restarts stamp their span; the third crash has not restarted.
        plan.spans[2].restart_at = 33;
        plan.spans[0].restart_at = 13;
        assert_eq!(plan.incarnation_span(server).map(|s| s.crash_at), Some(30));
        assert!(plan.incarnation_span(other).is_none());
    }
}
