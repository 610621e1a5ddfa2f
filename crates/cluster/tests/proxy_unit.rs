//! Unit tests of the reverse proxy's failover machinery, driven with a
//! bare engine and hand-fed messages.

#![expect(
    clippy::disallowed_types,
    reason = "hash containers here only aggregate assertions inside one test run; their ordering never reaches replicated state or traces"
)]

use cluster::{ClusterMsg, ProxyNode};
use simnet::{Engine, Event, NodeId, SimConfig, SimTime};
use tpcw::{CustomerId, RequestBody, WebRequest};

const SERVERS: usize = 3;

fn engine() -> Engine<ClusterMsg> {
    // 3 servers (0..3), proxy at 3, client at 4.
    Engine::new(5, SimConfig::default(), 1)
}

fn proxy(engine: &mut Engine<ClusterMsg>) -> ProxyNode {
    ProxyNode::new(NodeId(SERVERS), (0..SERVERS).map(NodeId).collect(), engine)
}

fn request(client_id: u64) -> WebRequest {
    WebRequest {
        interaction: tpcw::Interaction::Home,
        client_id,
        body: RequestBody::Home {
            customer: Some(CustomerId(1)),
        },
    }
}

/// Pumps the engine until `until`. The proxy handles its own messages
/// and timers; every message delivered to another node goes to
/// `on_delivery` with that node's index.
fn pump(
    engine: &mut Engine<ClusterMsg>,
    proxy: &mut ProxyNode,
    until: SimTime,
    mut on_delivery: impl FnMut(&mut Engine<ClusterMsg>, usize, ClusterMsg),
) {
    while let Some((_, ev)) = engine.next_event_before(until) {
        match ev {
            Event::Message { from, to, payload } if to.index() == SERVERS => {
                proxy.on_message(engine, from, payload);
            }
            Event::Message { to, payload, .. } => on_delivery(engine, to.index(), payload),
            Event::Timer { node, token } if node.index() == SERVERS => {
                proxy.on_timer(engine, token);
            }
            _ => {}
        }
    }
}

/// Fake server `node` answers `msg` at once if it is a probe: ready, or
/// still recovering.
fn answer_probe(engine: &mut Engine<ClusterMsg>, node: usize, msg: &ClusterMsg, ready: bool) {
    if let ClusterMsg::Probe { seq } = *msg {
        engine.send(
            NodeId(node),
            NodeId(SERVERS),
            ClusterMsg::ProbeReply {
                seq,
                server: node,
                ready,
            },
        );
    }
}

#[test]
fn probes_mark_silent_server_down_after_fall_threshold() {
    let mut e = engine();
    let mut p = proxy(&mut e);
    assert_eq!(p.healthy_count(), 3);
    // Server 2 never answers probes. After 4 failed rounds (~2s apart,
    // settled one round later) it must be out of rotation. Servers 0
    // and 1 answer theirs.
    pump(&mut e, &mut p, SimTime::from_secs(14), |e, node, msg| {
        if node != 2 {
            answer_probe(e, node, &msg, true);
        }
    });
    assert!(!p.is_healthy(2), "silent server must fall out");
    assert!(p.is_healthy(0) && p.is_healthy(1));
    assert_eq!(p.healthy_count(), 2);
}

#[test]
fn not_ready_replies_also_count_as_failures_and_rise_readmits() {
    let mut e = engine();
    let mut p = proxy(&mut e);
    pump(&mut e, &mut p, SimTime::from_secs(15), |e, node, msg| {
        answer_probe(e, node, &msg, node != 2);
    });
    assert!(!p.is_healthy(2), "503s must take the server out");
    // The server finishes recovering: starts answering ready.
    pump(&mut e, &mut p, SimTime::from_secs(30), |e, node, msg| {
        answer_probe(e, node, &msg, true);
    });
    assert!(p.is_healthy(2), "two good probes re-admit it");
}

#[test]
fn hash_balancing_is_stable_per_client() {
    let mut e = engine();
    let mut p = proxy(&mut e);
    // Same client twice → same server; different clients spread.
    for round in 0..2 {
        for client in 0..12u64 {
            let req_id = round * 100 + client;
            p.on_message(
                &mut e,
                NodeId(4),
                ClusterMsg::Request {
                    req_id,
                    request: request(client),
                },
            );
        }
    }
    let mut targets = Vec::new();
    let mut per_client: std::collections::HashMap<u64, Vec<usize>> = Default::default();
    pump(&mut e, &mut p, SimTime::from_secs(1), |_, node, msg| {
        if let ClusterMsg::Request { request, .. } = msg {
            per_client.entry(request.client_id).or_default().push(node);
            targets.push(node);
        }
    });
    for (client, nodes) in &per_client {
        assert!(
            nodes.windows(2).all(|w| w[0] == w[1]),
            "client {client} bounced between {nodes:?}"
        );
    }
    let distinct: std::collections::HashSet<usize> = targets.into_iter().collect();
    assert!(distinct.len() >= 2, "load must spread across servers");
}

#[test]
fn dead_server_requests_redispatch_after_retry_delays() {
    let mut e = engine();
    let mut p = proxy(&mut e);
    e.crash(NodeId(0));
    for client in 0..64u64 {
        p.on_message(
            &mut e,
            NodeId(4),
            ClusterMsg::Request {
                req_id: client,
                request: request(client),
            },
        );
    }
    // After the retry delays (3 × 1 s) everything must have landed on a
    // live server — zero client-visible errors. Live servers keep
    // answering their probes so they stay in rotation.
    let mut reached = 0;
    pump(&mut e, &mut p, SimTime::from_secs(10), |e, node, msg| {
        answer_probe(e, node, &msg, true);
        match msg {
            ClusterMsg::Request { .. } => {
                assert_ne!(node, 0, "request delivered to a dead server");
                reached += 1;
            }
            ClusterMsg::ConnError { .. } => panic!("redispatch must avoid client errors"),
            _ => {}
        }
    });
    assert_eq!(reached, 64);
    assert_eq!(p.errors_emitted(), 0);
}

#[test]
fn all_servers_down_surfaces_an_error() {
    let mut e = engine();
    let mut p = proxy(&mut e);
    for s in 0..SERVERS {
        e.crash(NodeId(s));
    }
    p.on_message(
        &mut e,
        NodeId(4),
        ClusterMsg::Request {
            req_id: 7,
            request: request(1),
        },
    );
    // The retries exhaust against dead machines; the client must get an
    // explicit error rather than silence.
    let mut got_error = false;
    pump(&mut e, &mut p, SimTime::from_secs(20), |_, node, msg| {
        got_error |= node == 4 && matches!(msg, ClusterMsg::ConnError { req_id: 7 });
    });
    assert!(got_error);
    assert!(p.errors_emitted() >= 1);
}

#[test]
fn responses_flow_back_to_the_requesting_client() {
    let mut e = engine();
    let mut p = proxy(&mut e);
    p.on_message(
        &mut e,
        NodeId(4),
        ClusterMsg::Request {
            req_id: 9,
            request: request(5),
        },
    );
    // Deliver to the chosen server, then answer.
    let mut server = None;
    pump(&mut e, &mut p, SimTime::from_secs(1), |_, node, msg| {
        if matches!(msg, ClusterMsg::Request { .. }) {
            server = Some(node);
        }
    });
    p.on_message(
        &mut e,
        NodeId(server.expect("forwarded")),
        ClusterMsg::Response {
            req_id: 9,
            interaction: tpcw::Interaction::Home,
            ok: true,
            session: tpcw::SessionUpdate::default(),
            bytes: 1000,
        },
    );
    let mut client_got = false;
    pump(&mut e, &mut p, SimTime::from_secs(2), |_, node, msg| {
        client_got |= node == 4 && matches!(msg, ClusterMsg::Response { req_id: 9, .. });
    });
    assert!(client_got);
}
