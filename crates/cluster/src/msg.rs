//! Messages exchanged on the simulated cluster network.

use paxos::Batch;
use robuststore::Action;
use tpcw::{Interaction, SessionUpdate, WebRequest};
use treplica::MwMsg;

/// A `req_id` holds its client node's index above this many bits and the
/// request's number at that node below them.
pub(crate) const REQ_SEQ_BITS: u32 = 40;

/// The client node index and the request number that make up `req_id`.
pub(crate) fn split_req_id(req_id: u64) -> (u64, u64) {
    (req_id >> REQ_SEQ_BITS, req_id & ((1 << REQ_SEQ_BITS) - 1))
}

/// Everything that travels over the experimental setup's switch
/// (Figure 2): replication traffic among servers, HTTP between clients,
/// proxy and servers, and the proxy's health probes.
#[derive(Debug, Clone)]
pub enum ClusterMsg {
    /// Treplica traffic between server replicas (consensus values are
    /// group-commit batches of updates).
    Mw(MwMsg<Batch<Action>>),
    /// An HTTP request (client → proxy, or proxy → chosen server).
    Request {
        /// Globally unique request id: the client node's index above
        /// 40 bits, the request's number at that node below them.
        req_id: u64,
        /// The web interaction.
        request: WebRequest,
    },
    /// A successful HTTP response (server → proxy → client).
    Response {
        /// Request id being answered.
        req_id: u64,
        /// The interaction that was served.
        interaction: Interaction,
        /// Whether the page was produced (business errors still count
        /// as served pages).
        ok: bool,
        /// Session context for the browser.
        session: SessionUpdate,
        /// Page size (drives reply serialization latency).
        bytes: u64,
    },
    /// Connection error: the server died mid-request or refused (the
    /// client observes an error — paper §5.1).
    ConnError {
        /// The failed request.
        req_id: u64,
    },
    /// HAProxy-style HTTP health probe (proxy → server).
    Probe {
        /// Probe sequence number.
        seq: u64,
    },
    /// Probe response (server → proxy). `ready` is false while the
    /// replica is still recovering (HTTP 503).
    ProbeReply {
        /// Echoed sequence number.
        seq: u64,
        /// Server index echoed back.
        server: usize,
        /// Whether the application is serving.
        ready: bool,
    },
}
