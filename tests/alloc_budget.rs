//! Allocation budgets for the consensus hot path, in tier-1.
//!
//! A decree is allocated once on a replica and shared from then on:
//! sizing a message is arithmetic and cloning one is a reference-count
//! bump. The repo benchmark counts allocations per simulated second,
//! but only when someone runs it; these tests make a reintroduced
//! encode-to-measure, deep clone or discarded store scan fail
//! `cargo test -q`.
//!
//! The counter is per thread, so the tests of this binary can run in
//! parallel without counting each other's work.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::VecDeque;

use robuststore_repro::cluster::{run_experiment, ExperimentConfig};
use robuststore_repro::paxos::{
    Ballot, Batch, Decree, Effect, Msg, PaxosConfig, ProposalId, Record, Replica, ReplicaId, Slot,
};
use robuststore_repro::robuststore::Action;
use robuststore_repro::simnet::TraceConfig;
use robuststore_repro::tpcw::{
    generate, Bookstore, CartId, CartLine, CustomerId, ItemId, Payment, PopulationParams, Profile,
    Schedule, Text,
};
use robuststore_repro::treplica::{MwMsg, Wire};

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

struct CountingAlloc;

fn count_one() {
    // `try_with`: the allocator still runs while a thread's locals are
    // being torn down; those allocations belong to no test.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// whose `GlobalAlloc` contract the caller already upholds; the counter
// is a const-initialised thread-local `Cell` with no destructor, so
// touching it neither allocates nor re-enters the allocator.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        // SAFETY: `ptr` came from this allocator, which is `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, which is `System`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Allocations `work` makes on this thread, and its result.
fn counted<T>(work: impl FnOnce() -> T) -> (u64, T) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = work();
    (ALLOCATIONS.with(Cell::get) - before, out)
}

/// What every acceptor broadcasts for a full group commit of orders: a
/// phase-2b message carrying a batch of eight `BuyConfirm` actions, five
/// strings each.
fn accepted_batch8() -> MwMsg<Batch<Action>> {
    let pid = |seq| ProposalId {
        node: ReplicaId(2),
        epoch: 1,
        seq,
    };
    let items = (0..8u64)
        .map(|seq| {
            let action = Action::BuyConfirm {
                cart: CartId(seq as u32),
                customer: CustomerId(40 + seq as u32),
                payment: Payment {
                    cc_type: "VISA".into(),
                    cc_num: "4111111111111111".into(),
                    cc_name: "Test Buyer".into(),
                    cc_expiry: 15_000,
                    auth_id: Text::from_fmt(format_args!("AUTH{seq:06}")),
                    country: 7,
                },
                ship_type: 2,
                now: 1_000_000 + seq,
            };
            (pid(seq), action)
        })
        .collect();
    let msg = Msg::Accepted {
        ballot: Ballot::fast(7, ReplicaId(2)),
        slot: Slot(123_456),
        decree: Decree::Value(pid(999), Batch::new(items)),
    };
    MwMsg::Paxos {
        epoch: 0,
        tag: Default::default(),
        msg,
    }
}

#[test]
fn sizing_a_batch_message_allocates_nothing() {
    let msg = accepted_batch8();
    let (allocations, bytes) = counted(|| msg.wire_bytes());
    assert_eq!(allocations, 0, "wire_bytes must not encode to measure");
    let MwMsg::Paxos { msg: inner, .. } = &msg else {
        unreachable!("built as a Paxos message");
    };
    assert_eq!(counted(|| inner.wire_size()).0, 0);
    // Headers (46) + kind, epoch and causal tag (1 + 8 + 28) + payload.
    assert_eq!(bytes, 46 + 37 + inner.to_bytes().len() as u64);

    // The third walk over the same tables: the log record of that
    // acceptance, validated the way the auditor does on every append.
    let Msg::Accepted {
        ballot,
        slot,
        decree,
    } = inner.clone()
    else {
        unreachable!("built as an Accepted message");
    };
    let entry = Record::Accepted {
        ballot,
        slot,
        decree,
    }
    .to_bytes();
    let mut input = entry.as_slice();
    let (allocations, checked) = counted(|| Record::<Batch<Action>>::check(&mut input));
    assert_eq!(checked, Ok(()));
    assert!(input.is_empty(), "check reads the whole record");
    assert_eq!(allocations, 0, "check must not build what it validates");
}

#[test]
fn cloning_a_batch_message_allocates_nothing() {
    let msg = accepted_batch8();
    let (allocations, copy) = counted(|| msg.clone());
    assert_eq!(allocations, 0, "a clone shares the batch");
    assert_eq!(copy, msg);
}

/// A replica decodes every action it is sent; the texts of an order are
/// short, so decoding one builds no heap block.
#[test]
fn decoding_an_order_allocates_nothing() {
    let MwMsg::Paxos {
        msg: Msg::Accepted {
            decree: Decree::Value(_, batch),
            ..
        },
        ..
    } = accepted_batch8()
    else {
        unreachable!("built as an Accepted message");
    };
    let bytes = batch.items[0].1.to_bytes();
    let (allocations, decoded) = counted(|| Action::from_bytes(&bytes));
    assert_eq!(decoded.as_ref(), Ok(&batch.items[0].1));
    assert_eq!(allocations, 0, "a short text decodes inline");
}

/// Measured 21 609 for the 1-EB population at the paper's 10 000 items
/// when the budget was set (184 500 while every text had its own heap
/// block); the budget leaves 25 %.
const BUDGET_POPULATION_ALLOCS: u64 = 27_011;

/// Only a text longer than 22 bytes takes a heap block, so generating a
/// population allocates for its tables, its indexes and its long texts
/// (the customers' data, the descriptions, the biographies).
#[test]
fn generating_a_population_allocates_only_its_long_texts() {
    let params = PopulationParams {
        items: 10_000,
        ebs: 1,
        seed: 7,
    };
    let (allocations, population) = counted(|| generate(params));
    println!("allocations generating a 1-EB population: {allocations}");
    assert_eq!(population.customers.len(), 2_880);
    assert!(
        allocations <= BUDGET_POPULATION_ALLOCS,
        "{allocations} allocations, budget {BUDGET_POPULATION_ALLOCS}"
    );
}

/// Every replica applies every Admin Confirm, so what the update does
/// beyond storing the item's new cost and images is paid once per
/// replica. At the paper's 10 000 items and two EBs the base already
/// holds more orders than the 3 333 a best-seller list reads.
#[test]
fn an_admin_update_allocates_only_what_it_stores() {
    let mut store = Bookstore::open(PopulationParams {
        items: 10_000,
        ebs: 2,
        seed: 7,
    });
    assert!(
        store.params().orders() > 3_333,
        "the best-seller window is full"
    );
    let (image, thumbnail) = (Text::from("img/42.gif"), Text::from("thumb/42.gif"));
    let (allocations, updated) =
        counted(|| store.admin_update(ItemId(42), 1_999, image, thumbnail));
    assert_eq!(updated, Ok(()));
    assert!(
        allocations <= 1,
        "{allocations} allocations: an admin update stores one map entry"
    );
}

/// Every replica applies every Shopping Cart update too. Almost every
/// cart holds at most four lines, and those lie inside the cart, so
/// adding, setting and removing its lines allocates nothing.
#[test]
fn updating_a_cart_allocates_nothing() {
    let mut store = Bookstore::open(PopulationParams {
        items: 1_000,
        ebs: 1,
        seed: 7,
    });
    let cart = store.create_cart(0);
    let line = |item, qty| CartLine {
        item: ItemId(item),
        qty,
    };
    // Each step adds an item (or not) and then sets or removes lines.
    let steps = [
        (Some((ItemId(1), 1)), vec![line(2, 3)]),
        (None, vec![line(3, 1), line(4, 2), line(2, 1)]),
        (Some((ItemId(4), 5)), vec![line(3, 0), line(5, 1)]),
        (None, vec![line(1, 0), line(2, 0), line(4, 0), line(5, 0)]),
        (
            Some((ItemId(6), 2)),
            vec![line(10, 0), line(7, 1), line(8, 1), line(9, 1)],
        ),
    ];
    for (now, (add, updates)) in (1..).zip(steps) {
        let (allocations, updated) =
            counted(|| store.do_cart(Some(cart), add, &updates, ItemId(10), now));
        assert_eq!(updated, Ok(cart));
        let lines = store.cart(cart).map(|c| c.lines.len());
        assert_eq!(allocations, 0, "a cart of {lines:?} lines allocated");
    }
    let lines = store.cart(cart).map(|c| c.lines.to_vec());
    let want = [line(6, 2), line(7, 1), line(8, 1), line(9, 1)];
    assert_eq!(lines, Ok(want.to_vec()), "the default item came and went");
}

/// The shape of the benchmark's `order_sat_b8` workload at test size:
/// ordering mix, eight replicas, group commit of eight, offered load far
/// above capacity so batches fill.
fn ordering_b8(interval_s: u64) -> ExperimentConfig {
    let mut config = ExperimentConfig::quick(8, Profile::Ordering);
    config.rbes = 2_400;
    config.client_nodes = 4;
    config.batch_max_updates = 8;
    config.batch_window_us = 80_000;
    config.schedule = Schedule {
        ramp_up_us: 2_000_000,
        interval_us: interval_s * 1_000_000,
        ramp_down_us: 500_000,
    };
    config
}

/// Allocations and updates committed (applied at replica 0) by one run.
fn run_cost(config: &ExperimentConfig) -> (u64, u64) {
    let (allocations, report) = counted(|| run_experiment(config));
    let applied = report
        .server_status
        .first()
        .and_then(|s| s.as_ref())
        .map_or(0, |s| s.applied);
    (allocations, applied)
}

/// Measured 8.3 when the budget was last set (13.7 at its parent, while
/// each middleware entry point returned its effects in a fresh `Vec`, a
/// cart's first line took a heap block and the batcher rebuilt its
/// buffer and copied it per batch); 14.5 when it was set before that
/// (22.0 at that parent, while
/// the consensus core returned a fresh `Vec` of effects per call and
/// kept a decree per vote in nested maps); 22.3 with a warm-up run
/// first when it was set before that (36.6 at that parent, while every
/// text had its own heap block). The figures before were taken without
/// one: the first counted run then
/// generated the shared base population and the second found it cached,
/// which took the population's allocations off the difference — 6.8,
/// budget 8.5, at that parent; 10.4, budget 13.0, while
/// every Admin Confirm built a best-seller list and threw it away; 23.1,
/// budget 28.9, while the auditor decoded every appended record to read
/// its key and the effect vectors of a broadcast and of a lowered batch
/// grew from empty; 27.2, budget 34.0, while `ProxyNode::pick_server`
/// still collected the usable servers into a `Vec` per request; 394.3
/// before that, while sizes came from encoding and batches were
/// deep-copied. The budget leaves 25 %.
const BUDGET_ALLOCS_PER_UPDATE: f64 = 10.4;

/// Whole-stack budget: what one more committed update costs the host in
/// allocations — clients, proxy, page handling, eight replicas'
/// consensus, logging and apply together — taken as the difference of a
/// longer and a shorter run so that set-up (bootstrap checkpoints)
/// cancels. The count is exact for a seed.
#[test]
fn ordering_mix_stays_within_its_allocation_budget() {
    // The first run in a process generates the base population that
    // every later run shares, so it runs before the two that count.
    run_cost(&ordering_b8(2));
    let (short_allocs, short_updates) = run_cost(&ordering_b8(2));
    let (long_allocs, long_updates) = run_cost(&ordering_b8(5));
    let updates = long_updates - short_updates;
    assert!(updates > 1_000, "the load commits updates: {updates}");
    let per_update = (long_allocs - short_allocs) as f64 / updates as f64;
    println!("allocations per committed update: {per_update:.1} over {updates} updates");
    assert!(
        per_update <= BUDGET_ALLOCS_PER_UPDATE,
        "{per_update:.1} allocations per committed update, budget {BUDGET_ALLOCS_PER_UPDATE}"
    );
}

/// Measured 18 allocations over 276 122 records when the budget was
/// set: the record vector's doublings, none per record. The budget
/// leaves 25 %, so a single heap block per record fails it.
const BUDGET_ALLOCS_PER_TRACE_RECORD: f64 = 0.000_082;

/// What the full trace costs in allocations per record it keeps: the
/// same run traced and untraced, every other cost cancelling. Records
/// hold the typed event; JSONL is written only at export.
#[test]
fn a_trace_record_stays_within_its_allocation_budget() {
    // As above: the first run generates the shared base population.
    run_cost(&ordering_b8(2));
    let (untraced, _) = run_cost(&ordering_b8(2));
    let mut config = ordering_b8(2);
    config.trace = TraceConfig::on();
    let (traced, report) = counted(|| run_experiment(&config));
    let records = report.trace.len();
    assert!(records > 100_000, "the run is traced: {records} records");
    let per_record = traced.saturating_sub(untraced) as f64 / records as f64;
    let extra = traced.saturating_sub(untraced);
    println!("allocations per trace record: {per_record:.5} ({extra} over {records} records)");
    assert!(
        per_record <= BUDGET_ALLOCS_PER_TRACE_RECORD,
        "{per_record:.3} allocations per trace record, budget {BUDGET_ALLOCS_PER_TRACE_RECORD}"
    );
}

/// Replicas on an in-memory bus — instant delivery, instant
/// persistence — driven through the buffer form of their entry points,
/// with one effect buffer and one spare reused by every call.
struct Bus {
    replicas: Vec<Replica<u64>>,
    inboxes: Vec<VecDeque<(ReplicaId, Msg<u64>)>>,
    fx: Vec<Effect<u64>>,
    spare: Vec<Effect<u64>>,
    delivered: u64,
    now: u64,
}

impl Bus {
    fn new(n: usize) -> Bus {
        let config = PaxosConfig::lan(n);
        let mut bus = Bus {
            replicas: (0..n as u32)
                .map(|i| Replica::new(ReplicaId(i), config.clone(), 0))
                .collect(),
            inboxes: (0..n).map(|_| VecDeque::new()).collect(),
            fx: Vec::new(),
            spare: Vec::new(),
            delivered: 0,
            now: 0,
        };
        // Elect a coordinator and open the fast window.
        for _ in 0..30 {
            bus.now += 20_000;
            for node in 0..n {
                bus.replicas[node].on_tick_into(bus.now, &mut bus.fx);
                bus.apply(node);
            }
            bus.settle();
        }
        bus
    }

    /// Applies what `node` left in the effect buffer, and what the
    /// persistence it asked for releases.
    fn apply(&mut self, node: usize) {
        while !self.fx.is_empty() {
            std::mem::swap(&mut self.fx, &mut self.spare);
            for effect in self.spare.drain(..) {
                match effect {
                    Effect::Send { to, msg } => {
                        self.inboxes[to.0 as usize].push_back((ReplicaId(node as u32), msg));
                    }
                    Effect::Persist { token, .. } => {
                        self.replicas[node].on_persisted_into(token, &mut self.fx);
                    }
                    Effect::Deliver { .. } => self.delivered += 1,
                    Effect::Reconfigured { .. } => {}
                }
            }
        }
    }

    fn settle(&mut self) {
        let mut moved = true;
        while moved {
            moved = false;
            for node in 0..self.replicas.len() {
                while let Some((from, msg)) = self.inboxes[node].pop_front() {
                    moved = true;
                    self.replicas[node].on_message_into(from, msg, self.now, &mut self.fx);
                    self.apply(node);
                }
            }
        }
    }

    /// Proposes `values` in turn at the replicas in turn, each settled
    /// before the next.
    fn commit(&mut self, values: std::ops::Range<u64>) {
        for value in values {
            let node = value as usize % self.replicas.len();
            self.replicas[node].propose_into(value, &mut self.fx);
            self.apply(node);
            self.settle();
        }
    }
}

/// Measured 0.500 when the budget was set; 8.700 before, while every
/// entry point returned a fresh `Vec` of effects, the learner kept a
/// decree per vote in nested maps and each acceptor answer came in a
/// `Vec` of messages. The budget leaves 25 %.
const BUDGET_CORE_ALLOCS_PER_SLOT: f64 = 0.625;

/// The consensus core's own cost per committed slot per replica on the
/// fast path: what the proposer, acceptor and learner keep per slot
/// (the accepted, decided and dedup maps grow a node every few slots),
/// and nothing per message.
#[test]
fn consensus_core_allocates_little_per_committed_slot() {
    const N: usize = 5;
    let mut bus = Bus::new(N);
    bus.commit(0..500);
    let (allocations, ()) = counted(|| bus.commit(500..3_500));
    assert_eq!(
        bus.delivered,
        3_500 * N as u64,
        "every replica delivers every value"
    );
    let per_slot = allocations as f64 / (3_000 * N) as f64;
    println!("consensus core allocations per committed slot per replica: {per_slot:.3}");
    assert!(
        per_slot <= BUDGET_CORE_ALLOCS_PER_SLOT,
        "{per_slot:.2} allocations per slot per replica, budget {BUDGET_CORE_ALLOCS_PER_SLOT}"
    );
}
