//! The `TpcwDatabase` facade.
//!
//! In the original bookstore the servlets talked to the database
//! through one facade class; RobustStore keeps the structure and swaps
//! the SQL for the replicated state machine (paper §4). The facade's
//! two jobs here:
//!
//! * **classify** an incoming web request as a *local read* (served
//!   from this replica's state, no total order — how the paper gets
//!   95% of browsing traffic for free) or an *update action*;
//! * **remove non-determinism**: server timestamps, the new-customer
//!   discount, and the payment-gateway authorization id are sampled
//!   *before* the action object is built and carried inside it.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use tpcw::{
    Bookstore, Interaction, ItemId, NewCustomer, Payment, RequestBody, SessionUpdate, StoreError,
    Text, WebRequest,
};

use crate::action::{Action, Reply};

/// A read operation servable from local state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReadOp {
    /// Home page.
    Home {
        /// Returning customer.
        customer: Option<tpcw::CustomerId>,
    },
    /// New-products listing.
    NewProducts {
        /// Subject.
        subject: u8,
    },
    /// Best-sellers listing.
    BestSellers {
        /// Subject.
        subject: u8,
    },
    /// Product detail.
    ProductDetail {
        /// Item.
        item: ItemId,
    },
    /// Static search form.
    SearchRequest,
    /// Search results.
    SearchResults {
        /// 0 subject / 1 title / 2 author.
        kind: u8,
        /// Subject for kind 0.
        subject: u8,
        /// Term for kinds 1–2.
        term: Text,
    },
    /// Static order-inquiry form.
    OrderInquiry,
    /// Order display.
    OrderDisplay {
        /// Customer user name.
        uname: Text,
    },
    /// Admin edit form.
    AdminRequest {
        /// Item.
        item: ItemId,
    },
}

/// A classified request: local read or replicated update.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Prepared {
    /// Serve from local state.
    Read(ReadOp),
    /// Order through the persistent queue.
    Write(Action),
}

/// Result of serving a request at a replica.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PageResult {
    /// Whether the page was produced successfully.
    pub ok: bool,
    /// Session context for the browser.
    pub session: SessionUpdate,
    /// Approximate page size in bytes (network reply sizing).
    pub page_bytes: u64,
}

/// The facade: classification + non-determinism removal + read serving.
#[derive(Debug)]
pub struct TpcwDatabase {
    rng: StdRng,
}

impl TpcwDatabase {
    /// Creates a facade with its own server-local RNG (its draws never
    /// reach the replicated state except inside action parameters).
    pub fn new(seed: u64) -> TpcwDatabase {
        TpcwDatabase {
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// Classifies a request; `now_us` is this server's local clock,
    /// read *before* action construction (paper §4, task II).
    pub fn prepare(&mut self, request: &WebRequest, now_us: u64) -> Prepared {
        match &request.body {
            RequestBody::Home { customer } => Prepared::Read(ReadOp::Home {
                customer: *customer,
            }),
            RequestBody::NewProducts { subject } => {
                Prepared::Read(ReadOp::NewProducts { subject: *subject })
            }
            RequestBody::BestSellers { subject } => {
                Prepared::Read(ReadOp::BestSellers { subject: *subject })
            }
            RequestBody::ProductDetail { item } => {
                Prepared::Read(ReadOp::ProductDetail { item: *item })
            }
            RequestBody::SearchRequest => Prepared::Read(ReadOp::SearchRequest),
            RequestBody::SearchResults {
                kind,
                subject,
                term,
            } => Prepared::Read(ReadOp::SearchResults {
                kind: *kind,
                subject: *subject,
                term: term.clone(),
            }),
            RequestBody::OrderInquiry => Prepared::Read(ReadOp::OrderInquiry),
            RequestBody::OrderDisplay { uname } => Prepared::Read(ReadOp::OrderDisplay {
                uname: uname.clone(),
            }),
            RequestBody::AdminRequest { item } => {
                Prepared::Read(ReadOp::AdminRequest { item: *item })
            }
            RequestBody::ShoppingCart {
                cart,
                add,
                updates,
                default_item,
            } => Prepared::Write(Action::DoCart {
                cart: *cart,
                add: *add,
                updates: updates.clone(),
                default_item: *default_item,
                now: now_us,
            }),
            RequestBody::CustomerRegistration {
                returning,
                fname,
                lname,
                phone,
                email,
                birthdate,
                data,
            } => match returning {
                Some(customer) => Prepared::Write(Action::RefreshSession {
                    customer: *customer,
                    now: now_us,
                }),
                None => Prepared::Write(Action::RegisterCustomer {
                    reg: NewCustomer {
                        fname: fname.clone(),
                        lname: lname.clone(),
                        phone: phone.clone(),
                        email: email.clone(),
                        birthdate: *birthdate,
                        data: data.clone(),
                        // The paper's example: the registration discount
                        // is sampled here, before the action exists.
                        discount_bp: self.rng.gen_range(0..5_100),
                        now: now_us,
                    },
                }),
            },
            RequestBody::BuyRequest { customer, cart: _ } => {
                Prepared::Write(Action::RefreshSession {
                    customer: *customer,
                    now: now_us,
                })
            }
            RequestBody::BuyConfirm {
                customer,
                cart,
                cc_type,
                cc_num,
                cc_name,
                cc_expiry,
                country,
                ship_type,
            } => match cart {
                Some(cart) => Prepared::Write(Action::BuyConfirm {
                    cart: *cart,
                    customer: *customer,
                    payment: Payment {
                        cc_type: cc_type.clone(),
                        cc_num: cc_num.clone(),
                        cc_name: cc_name.clone(),
                        cc_expiry: *cc_expiry,
                        // Pre-sampled payment-gateway authorization.
                        auth_id: Text::from_fmt(format_args!(
                            "AUTH{:012x}",
                            self.rng.gen::<u64>() & 0xFFFF_FFFF_FFFF
                        )),
                        country: *country,
                    },
                    ship_type: *ship_type,
                    now: now_us,
                }),
                // No cart in session: degrade to a cart view (error page
                // avoided; TPC-W browsers never do this, but be robust).
                None => Prepared::Read(ReadOp::Home {
                    customer: Some(*customer),
                }),
            },
            RequestBody::AdminConfirm {
                item,
                new_cost_cents,
            } => {
                let n: u32 = self.rng.gen_range(0..1_000);
                Prepared::Write(Action::AdminUpdate {
                    item: *item,
                    cost_cents: *new_cost_cents,
                    image: Text::from_fmt(format_args!("img/full/{}_{n}.gif", item.0)),
                    thumbnail: Text::from_fmt(format_args!("img/thumb/{}_{n}.gif", item.0)),
                })
            }
        }
    }

    /// Serves a read against local state.
    pub fn perform_read(store: &Bookstore, op: &ReadOp) -> PageResult {
        let ok_page = |bytes: u64| PageResult {
            ok: true,
            session: SessionUpdate::default(),
            page_bytes: bytes,
        };
        let error_page = PageResult {
            ok: false,
            session: SessionUpdate::default(),
            page_bytes: 500,
        };
        match op {
            ReadOp::Home { customer } => {
                let (_customer, promos) = store.get_home(*customer);
                ok_page(4_000 + promos.len() as u64 * 400)
            }
            ReadOp::NewProducts { subject } => {
                let items = store.get_new_products(*subject);
                ok_page(2_000 + items.len() as u64 * 120)
            }
            ReadOp::BestSellers { subject } => {
                let items = store.get_best_sellers(*subject);
                ok_page(2_000 + items.len() as u64 * 120)
            }
            ReadOp::ProductDetail { item } if store.has_item(*item) => ok_page(6_000),
            ReadOp::SearchRequest => ok_page(1_500),
            ReadOp::SearchResults {
                kind,
                subject,
                term,
            } => {
                let items = match kind {
                    0 => store.search_by_subject(*subject).len(),
                    1 => store.search_by_title(term).len(),
                    _ => store.search_by_author(term).len(),
                };
                ok_page(2_000 + items as u64 * 120)
            }
            ReadOp::OrderInquiry => ok_page(1_200),
            ReadOp::OrderDisplay { uname } => match store.most_recent_order(uname) {
                Ok(Some(order)) => {
                    let detail = store.order(order);
                    ok_page(3_000 + detail.map(|(_, l, _)| l.len() as u64 * 150).unwrap_or(0))
                }
                Ok(None) => ok_page(1_200),
                Err(_) => error_page,
            },
            ReadOp::AdminRequest { item } if store.has_item(*item) => ok_page(3_000),
            ReadOp::ProductDetail { .. } | ReadOp::AdminRequest { .. } => error_page,
        }
    }

    /// Builds the page result for a completed write action.
    pub fn write_result(interaction: Interaction, reply: &Reply) -> PageResult {
        let mut session = SessionUpdate::default();
        let (ok, bytes) = match reply {
            Reply::Cart(id) => {
                session.cart = Some(*id);
                (true, 3_500)
            }
            Reply::Customer(id) => {
                session.customer = Some(*id);
                (true, 2_500)
            }
            Reply::SessionRefreshed => (true, 2_500),
            Reply::Order(_) => (true, 4_500),
            Reply::ItemUpdated => (true, 2_000),
            Reply::Failed(e) => (
                // Deterministic business failures render an error page
                // but are *served*; distinguish from infrastructure
                // errors counted against accuracy.
                !matches!(e, StoreError::NoSuchCart | StoreError::NoSuchCustomer),
                800,
            ),
        };
        let _ = interaction;
        PageResult {
            ok,
            session,
            page_bytes: bytes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpcw::{CustomerId, PopulationParams, Profile, Rbe, RbeConfig};

    fn store() -> Bookstore {
        Bookstore::open(PopulationParams {
            items: 120,
            ebs: 1,
            seed: 5,
        })
    }

    fn facade() -> TpcwDatabase {
        TpcwDatabase::new(1)
    }

    #[test]
    fn reads_classified_as_reads() {
        let mut f = facade();
        let req = WebRequest {
            interaction: Interaction::Home,
            client_id: 1,
            body: RequestBody::Home { customer: None },
        };
        assert!(matches!(f.prepare(&req, 0), Prepared::Read(_)));
    }

    #[test]
    fn updates_carry_presampled_time() {
        let mut f = facade();
        let req = WebRequest {
            interaction: Interaction::ShoppingCart,
            client_id: 1,
            body: RequestBody::ShoppingCart {
                cart: None,
                add: Some((ItemId(1), 1)),
                updates: vec![],
                default_item: ItemId(0),
            },
        };
        match f.prepare(&req, 123_456) {
            Prepared::Write(Action::DoCart { now, .. }) => assert_eq!(now, 123_456),
            other => panic!("expected DoCart, got {other:?}"),
        }
    }

    #[test]
    fn registration_discount_sampled_in_facade() {
        let mut f = facade();
        let req = WebRequest {
            interaction: Interaction::CustomerRegistration,
            client_id: 1,
            body: RequestBody::CustomerRegistration {
                returning: None,
                fname: "A".into(),
                lname: "B".into(),
                phone: "5551234".into(),
                email: "a@b.c".into(),
                birthdate: 5_000,
                data: "d".into(),
            },
        };
        match f.prepare(&req, 9) {
            Prepared::Write(Action::RegisterCustomer { reg }) => {
                assert!(reg.discount_bp < 5_100);
                assert_eq!(reg.now, 9);
            }
            other => panic!("expected RegisterCustomer, got {other:?}"),
        }
        // Returning customers refresh their session instead.
        let req = WebRequest {
            interaction: Interaction::CustomerRegistration,
            client_id: 1,
            body: RequestBody::CustomerRegistration {
                returning: Some(CustomerId(4)),
                fname: Text::new(),
                lname: Text::new(),
                phone: Text::new(),
                email: Text::new(),
                birthdate: 0,
                data: Text::new(),
            },
        };
        assert!(matches!(
            f.prepare(&req, 9),
            Prepared::Write(Action::RefreshSession { .. })
        ));
    }

    #[test]
    fn auth_id_sampled_in_facade() {
        let mut f = facade();
        let req = WebRequest {
            interaction: Interaction::BuyConfirm,
            client_id: 1,
            body: RequestBody::BuyConfirm {
                customer: CustomerId(1),
                cart: Some(tpcw::CartId(0)),
                cc_type: "VISA".into(),
                cc_num: "4111".into(),
                cc_name: "N".into(),
                cc_expiry: 15_000,
                country: 1,
                ship_type: 2,
            },
        };
        match f.prepare(&req, 1) {
            Prepared::Write(Action::BuyConfirm { payment, .. }) => {
                assert!(payment.auth_id.starts_with("AUTH"));
            }
            other => panic!("expected BuyConfirm, got {other:?}"),
        }
    }

    #[test]
    fn every_rbe_request_classifies() {
        // Fuzz: everything an RBE can emit must classify without panics
        // and read/write per its interaction class.
        let mut f = facade();
        let mut rbe = Rbe::new(
            7,
            RbeConfig {
                profile: Profile::Ordering,
                think_mean_us: 1,
                items: 120,
                customers: 2_880,
            },
            3,
        );
        rbe.on_response(
            Interaction::ShoppingCart,
            SessionUpdate {
                cart: Some(tpcw::CartId(0)),
                customer: None,
            },
        );
        for _ in 0..5_000 {
            let req = rbe.next_request();
            let prepared = f.prepare(&req, 42);
            match (&prepared, req.interaction.is_update()) {
                (Prepared::Read(_), false) | (Prepared::Write(_), true) => {}
                _ => panic!("misclassified {:?} → {prepared:?}", req.interaction),
            }
            if req.interaction == Interaction::BuyConfirm {
                rbe.on_response(Interaction::BuyConfirm, SessionUpdate::default());
                rbe.on_response(
                    Interaction::ShoppingCart,
                    SessionUpdate {
                        cart: Some(tpcw::CartId(0)),
                        customer: None,
                    },
                );
            }
        }
    }

    #[test]
    fn reads_execute_against_local_state() {
        let s = store();
        for op in [
            ReadOp::Home {
                customer: Some(CustomerId(1)),
            },
            ReadOp::NewProducts { subject: 3 },
            ReadOp::BestSellers { subject: 3 },
            ReadOp::ProductDetail { item: ItemId(5) },
            ReadOp::SearchRequest,
            ReadOp::SearchResults {
                kind: 0,
                subject: 1,
                term: Text::new(),
            },
            ReadOp::SearchResults {
                kind: 1,
                subject: 0,
                term: "a".into(),
            },
            ReadOp::OrderInquiry,
            ReadOp::OrderDisplay {
                uname: s.customer(CustomerId(2)).unwrap().uname.clone(),
            },
            ReadOp::AdminRequest { item: ItemId(1) },
        ] {
            let page = TpcwDatabase::perform_read(&s, &op);
            assert!(page.ok, "read {op:?} failed");
            assert!(page.page_bytes > 0);
        }
    }

    #[test]
    fn write_results_update_sessions() {
        use crate::action::Reply;
        let r =
            TpcwDatabase::write_result(Interaction::ShoppingCart, &Reply::Cart(tpcw::CartId(9)));
        assert_eq!(r.session.cart, Some(tpcw::CartId(9)));
        let r = TpcwDatabase::write_result(
            Interaction::CustomerRegistration,
            &Reply::Customer(CustomerId(7)),
        );
        assert_eq!(r.session.customer, Some(CustomerId(7)));
        let r = TpcwDatabase::write_result(
            Interaction::BuyConfirm,
            &Reply::Failed(StoreError::EmptyCart),
        );
        assert!(r.ok, "empty-cart is a served business error");
        let r = TpcwDatabase::write_result(
            Interaction::BuyConfirm,
            &Reply::Failed(StoreError::NoSuchCart),
        );
        assert!(!r.ok);
    }
}
