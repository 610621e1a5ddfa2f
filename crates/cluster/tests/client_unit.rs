//! Unit tests of the client node (RBE host): think/issue/response
//! cycles, error handling, and the stale-request sweep.

use cluster::{ClientNode, ClusterMsg};
use simnet::{Engine, Event, NodeId, SimConfig, SimTime};
use tpcw::{Profile, RbeConfig, Recorder, SessionUpdate, WebRequest};

const PROXY: usize = 0;
const CLIENT: usize = 1;

fn setup(count: usize) -> (Engine<ClusterMsg>, ClientNode, Recorder) {
    let mut engine = Engine::new(2, SimConfig::default(), 3);
    let client = ClientNode::new(
        NodeId(CLIENT),
        NodeId(PROXY),
        count,
        0,
        RbeConfig {
            profile: Profile::Shopping,
            think_mean_us: 500_000,
            items: 100,
            customers: 2_880,
        },
        9,
        5_000_000,
        &mut engine,
    );
    (engine, client, Recorder::new(300_000_000))
}

/// A served page for request `req_id`: ok, or a business error page.
fn page(req_id: u64, request: &WebRequest, ok: bool, bytes: u64) -> ClusterMsg {
    ClusterMsg::Response {
        req_id,
        interaction: request.interaction,
        ok,
        session: SessionUpdate::default(),
        bytes,
    }
}

/// Runs the client against a fake proxy that sends back whatever
/// `answer` makes of each request, at once (or nothing, for `None`).
/// Returns requests seen.
fn run(
    engine: &mut Engine<ClusterMsg>,
    client: &mut ClientNode,
    rec: &mut Recorder,
    until: SimTime,
    answer: impl Fn(u64, &WebRequest) -> Option<ClusterMsg>,
) -> usize {
    let mut seen = 0;
    while let Some((_, ev)) = engine.next_event_before(until) {
        match ev {
            Event::Message {
                to,
                payload: ClusterMsg::Request { req_id, request },
                ..
            } if to.index() == PROXY => {
                seen += 1;
                if let Some(reply) = answer(req_id, &request) {
                    engine.send(NodeId(PROXY), NodeId(CLIENT), reply);
                }
            }
            Event::Message { to, payload, .. } if to.index() == CLIENT => {
                client.on_message(engine, payload, rec);
            }
            Event::Timer { node, token } if node.index() == CLIENT => {
                client.on_timer(engine, token, rec);
            }
            _ => {}
        }
    }
    seen
}

#[test]
fn closed_loop_throughput_matches_think_time() {
    let (mut engine, mut client, mut rec) = setup(20);
    // 20 RBEs at 0.5 s mean think → ≈40 interactions/s when responses
    // are instant; over 30 s that is ≈1200 completions.
    let seen = run(
        &mut engine,
        &mut client,
        &mut rec,
        SimTime::from_secs(30),
        |req_id, request| Some(page(req_id, request, true, 2_000)),
    );
    assert!(seen > 800, "issued {seen}");
    assert_eq!(rec.total_ok() as usize, seen, "every reply recorded");
    assert_eq!(rec.total_errors(), 0);
    let awips = faultload::performability(rec.wips_series(), 5_000_000, 30_000_000).awips;
    assert!((25.0..60.0).contains(&awips), "closed-loop AWIPS {awips}");
}

#[test]
fn unanswered_requests_time_out_via_sweep() {
    let (mut engine, mut client, mut rec) = setup(5);
    // Nothing ever answers: the 60 s client timeout + 5 s sweep must
    // reclaim each browser and record an error.
    let until = SimTime::from_secs(80);
    run(&mut engine, &mut client, &mut rec, until, |_, _| None);
    assert_eq!(rec.total_ok(), 0);
    assert!(
        rec.total_errors() >= 5,
        "each browser times out at least once: {}",
        rec.total_errors()
    );
    assert_eq!(client.in_flight(), 5, "browsers re-issued after timeout");
}

#[test]
fn conn_errors_count_and_browser_continues() {
    let (mut engine, mut client, mut rec) = setup(3);
    let errored = run(
        &mut engine,
        &mut client,
        &mut rec,
        SimTime::from_secs(20),
        |req_id, _| Some(ClusterMsg::ConnError { req_id }),
    );
    assert!(
        errored > 30,
        "browsers keep retrying after errors: {errored}"
    );
    assert_eq!(rec.total_errors() as usize, errored);
    assert_eq!(rec.total_ok(), 0);
}

#[test]
fn served_error_pages_recorded_against_accuracy() {
    let (mut engine, mut client, mut rec) = setup(2);
    run(
        &mut engine,
        &mut client,
        &mut rec,
        SimTime::from_secs(10),
        |req_id, request| Some(page(req_id, request, false, 800)),
    );
    let (conn, served) = rec.error_breakdown();
    assert_eq!(conn, 0);
    assert!(served > 5, "served error pages recorded: {served}");
    assert_eq!(rec.total_errors(), served, "each one counts as an error");
}
