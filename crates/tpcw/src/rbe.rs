//! Remote Browser Emulators (RBEs).
//!
//! TPC-W drives the system under test with emulated browsers: each
//! issues an interaction, waits for the response, thinks (exponentially
//! distributed think time — the paper reduces the 7 s default to 1 s,
//! §5.1), and repeats. The RBE keeps per-session context (customer,
//! cart) so the generated requests are well-formed, and pre-samples all
//! *client-side* request parameters; server-side non-determinism
//! (timestamps, discounts, payment authorizations) is sampled by the
//! web tier's facade before actions are built.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::interactions::{Interaction, Profile};
use crate::model::{CartId, CartLine, CustomerId, ItemId, SUBJECTS};
use crate::population::{c_uname, rand_email, rand_name, rand_text};
use crate::text::Chars::{Digits, Letters};
use crate::text::Text;

/// Client-supplied body of one web request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RequestBody {
    /// Home page (optionally as a known customer).
    Home {
        /// Returning customer, if the session has one.
        customer: Option<CustomerId>,
    },
    /// New-products listing.
    NewProducts {
        /// Subject index.
        subject: u8,
    },
    /// Best-sellers listing.
    BestSellers {
        /// Subject index.
        subject: u8,
    },
    /// Product detail.
    ProductDetail {
        /// The item to display.
        item: ItemId,
    },
    /// Search form (static).
    SearchRequest,
    /// Search results.
    SearchResults {
        /// 0 = subject, 1 = title, 2 = author.
        kind: u8,
        /// Subject index (kind 0).
        subject: u8,
        /// Search term (kinds 1–2).
        term: Text,
    },
    /// Cart display/update.
    ShoppingCart {
        /// Existing cart, if any.
        cart: Option<CartId>,
        /// Item to add.
        add: Option<(ItemId, u32)>,
        /// Quantity updates.
        updates: Vec<CartLine>,
        /// Random item the server adds if the cart ends up empty
        /// (client-sampled per TPC-W).
        default_item: ItemId,
    },
    /// Customer registration: returning customer or new registration.
    CustomerRegistration {
        /// Returning customer (80% of registrations).
        returning: Option<CustomerId>,
        /// New-customer fields (20%).
        fname: Text,
        /// Last name.
        lname: Text,
        /// Phone.
        phone: Text,
        /// Email.
        email: Text,
        /// Birthdate.
        birthdate: u32,
        /// Free-form data.
        data: Text,
    },
    /// Payment page (refreshes the session).
    BuyRequest {
        /// The purchasing customer.
        customer: CustomerId,
        /// The cart being bought.
        cart: Option<CartId>,
    },
    /// Order placement.
    BuyConfirm {
        /// The purchasing customer.
        customer: CustomerId,
        /// The cart to purchase.
        cart: Option<CartId>,
        /// Card type.
        cc_type: Text,
        /// Card number.
        cc_num: Text,
        /// Cardholder.
        cc_name: Text,
        /// Expiry.
        cc_expiry: u32,
        /// Issuing country.
        country: u32,
        /// Shipping method.
        ship_type: u8,
    },
    /// Order-status form (static).
    OrderInquiry,
    /// Order-status display.
    OrderDisplay {
        /// Customer user name to look up.
        uname: Text,
    },
    /// Admin edit form.
    AdminRequest {
        /// Item being edited.
        item: ItemId,
    },
    /// Admin edit confirmation.
    AdminConfirm {
        /// Item being edited.
        item: ItemId,
        /// New price in cents.
        new_cost_cents: u64,
    },
}

/// One web request as it leaves the emulated browser.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WebRequest {
    /// The interaction type.
    pub interaction: Interaction,
    /// Client identifier (drives the proxy's hash balancing).
    pub client_id: u64,
    /// Request body.
    pub body: RequestBody,
}

/// What the browser needs back to maintain its session.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SessionUpdate {
    /// Cart id created/confirmed by the server.
    pub cart: Option<CartId>,
    /// Customer id created by a registration.
    pub customer: Option<CustomerId>,
}

/// Configuration of one emulated browser.
#[derive(Debug, Clone)]
pub struct RbeConfig {
    /// Workload profile.
    pub profile: Profile,
    /// Mean think time in µs (paper: 1 s).
    pub think_mean_us: u64,
    /// Item population size.
    pub items: u32,
    /// Customer population size.
    pub customers: u32,
}

/// An emulated browser.
#[derive(Debug)]
pub struct Rbe {
    /// Stable client id (proxy affinity).
    pub client_id: u64,
    config: RbeConfig,
    rng: StdRng,
    customer: CustomerId,
    cart: Option<CartId>,
}

impl Rbe {
    /// Creates browser `client_id` with its own deterministic RNG.
    pub fn new(client_id: u64, config: RbeConfig, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed ^ (client_id.wrapping_mul(0x9E37_79B9_7F4A_7C15)));
        let customer = CustomerId(rng.gen_range(0..config.customers));
        Rbe {
            client_id,
            config,
            rng,
            customer,
            cart: None,
        }
    }

    /// Samples an exponentially distributed think time (capped at 10×
    /// the mean, mirroring TPC-W's truncation).
    pub fn think_time_us(&mut self) -> u64 {
        let u: f64 = self.rng.gen_range(1e-9..1.0);
        let t = -(u.ln()) * self.config.think_mean_us as f64;
        (t as u64).min(10 * self.config.think_mean_us)
    }

    fn rand_item(&mut self) -> ItemId {
        ItemId(self.rng.gen_range(0..self.config.items))
    }

    /// Emits the next request.
    ///
    /// Navigation fix-up: purchase interactions sampled without an
    /// active cart degrade to a cart interaction (both are updates, so
    /// the profile's read/write ratio is preserved).
    #[expect(
        clippy::indexing_slicing,
        reason = "the card index is drawn below the five card names"
    )]
    pub fn next_request(&mut self) -> WebRequest {
        let mut interaction = self.config.profile.sample(&mut self.rng);
        if matches!(
            interaction,
            Interaction::BuyConfirm | Interaction::BuyRequest
        ) && self.cart.is_none()
        {
            interaction = Interaction::ShoppingCart;
        }
        let body = match interaction {
            Interaction::Home => RequestBody::Home {
                customer: Some(self.customer),
            },
            Interaction::NewProducts => RequestBody::NewProducts {
                subject: self.rng.gen_range(0..SUBJECTS.len() as u8),
            },
            Interaction::BestSellers => RequestBody::BestSellers {
                subject: self.rng.gen_range(0..SUBJECTS.len() as u8),
            },
            Interaction::ProductDetail => RequestBody::ProductDetail {
                item: self.rand_item(),
            },
            Interaction::SearchRequest => RequestBody::SearchRequest,
            Interaction::SearchResults => {
                let kind = self.rng.gen_range(0..3u8);
                RequestBody::SearchResults {
                    kind,
                    subject: self.rng.gen_range(0..SUBJECTS.len() as u8),
                    term: rand_text(&mut self.rng, Letters(1, 2)),
                }
            }
            Interaction::ShoppingCart => {
                let add = if self.cart.is_none() || self.rng.gen_bool(0.75) {
                    Some((self.rand_item(), self.rng.gen_range(1..=3)))
                } else {
                    None
                };
                let updates = if self.cart.is_some() && self.rng.gen_bool(0.3) {
                    vec![CartLine {
                        item: self.rand_item(),
                        qty: self.rng.gen_range(0..=4),
                    }]
                } else {
                    Vec::new()
                };
                RequestBody::ShoppingCart {
                    cart: self.cart,
                    add,
                    updates,
                    default_item: self.rand_item(),
                }
            }
            Interaction::CustomerRegistration => {
                // TPC-W: 20% of registrations create a new customer.
                let returning = if self.rng.gen_bool(0.8) {
                    Some(self.customer)
                } else {
                    None
                };
                RequestBody::CustomerRegistration {
                    returning,
                    fname: rand_text(&mut self.rng, Letters(3, 12)),
                    lname: rand_text(&mut self.rng, Letters(3, 15)),
                    phone: rand_text(&mut self.rng, Digits(10)),
                    email: rand_email(&mut self.rng, Letters(5, 10)),
                    birthdate: self.rng.gen_range(1_000..12_000),
                    data: rand_text(&mut self.rng, Letters(20, 40)),
                }
            }
            Interaction::BuyRequest => RequestBody::BuyRequest {
                customer: self.customer,
                cart: self.cart,
            },
            Interaction::BuyConfirm => RequestBody::BuyConfirm {
                customer: self.customer,
                cart: self.cart,
                cc_type: Text::from(
                    ["VISA", "MASTERCARD", "DISCOVER", "AMEX", "DINERS"]
                        [self.rng.gen_range(0..5usize)],
                ),
                cc_num: rand_text(&mut self.rng, Digits(16)),
                cc_name: rand_name(&mut self.rng, Letters(3, 10), Letters(3, 12)),
                cc_expiry: self.rng.gen_range(14_100..15_000),
                country: self.rng.gen_range(0..92),
                ship_type: self.rng.gen_range(0..6),
            },
            Interaction::OrderInquiry => RequestBody::OrderInquiry,
            Interaction::OrderDisplay => RequestBody::OrderDisplay {
                uname: c_uname(self.customer),
            },
            Interaction::AdminRequest => RequestBody::AdminRequest {
                item: self.rand_item(),
            },
            Interaction::AdminConfirm => RequestBody::AdminConfirm {
                item: self.rand_item(),
                new_cost_cents: self.rng.gen_range(100..10_000),
            },
        };
        WebRequest {
            interaction,
            client_id: self.client_id,
            body,
        }
    }

    /// Applies the server's session update after a successful response.
    pub fn on_response(&mut self, interaction: Interaction, update: SessionUpdate) {
        if let Some(cart) = update.cart {
            self.cart = Some(cart);
        }
        if let Some(customer) = update.customer {
            self.customer = customer;
        }
        if interaction == Interaction::BuyConfirm {
            self.cart = None; // the cart was consumed by the purchase
        }
    }

    /// The session's current cart, if any.
    pub fn cart(&self) -> Option<CartId> {
        self.cart
    }

    /// The session's customer.
    pub fn customer(&self) -> CustomerId {
        self.customer
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config() -> RbeConfig {
        RbeConfig {
            profile: Profile::Shopping,
            think_mean_us: 1_000_000,
            items: 1_000,
            customers: 2_880,
        }
    }

    #[test]
    fn think_time_has_right_mean_and_cap() {
        let mut rbe = Rbe::new(1, config(), 9);
        let n = 20_000;
        let sum: u64 = (0..n).map(|_| rbe.think_time_us()).sum();
        let mean = sum / n;
        assert!(
            (900_000..1_100_000).contains(&mean),
            "mean think time {mean}"
        );
        for _ in 0..10_000 {
            assert!(rbe.think_time_us() <= 10_000_000);
        }
    }

    #[test]
    fn purchase_without_cart_degrades_to_cart() {
        let mut rbe = Rbe::new(2, config(), 9);
        for _ in 0..2_000 {
            let req = rbe.next_request();
            assert!(
                !matches!(
                    req.interaction,
                    Interaction::BuyConfirm | Interaction::BuyRequest
                ),
                "no purchase before a cart exists"
            );
            if req.interaction == Interaction::ShoppingCart {
                break;
            }
        }
    }

    #[test]
    fn session_tracks_cart_and_purchase_clears_it() {
        let mut rbe = Rbe::new(3, config(), 9);
        rbe.on_response(
            Interaction::ShoppingCart,
            SessionUpdate {
                cart: Some(CartId(7)),
                customer: None,
            },
        );
        assert_eq!(rbe.cart(), Some(CartId(7)));
        rbe.on_response(Interaction::BuyConfirm, SessionUpdate::default());
        assert_eq!(rbe.cart(), None);
    }

    #[test]
    fn registration_updates_customer() {
        let mut rbe = Rbe::new(4, config(), 9);
        let before = rbe.customer();
        rbe.on_response(
            Interaction::CustomerRegistration,
            SessionUpdate {
                cart: None,
                customer: Some(CustomerId(99_999)),
            },
        );
        assert_ne!(rbe.customer(), before);
    }

    #[test]
    fn update_ratio_preserved_with_fixups() {
        // Even with buy→cart degradation, the fraction of update
        // interactions matches the profile.
        let mut rbe = Rbe::new(5, config(), 10);
        let mut updates = 0;
        let n = 50_000;
        for _ in 0..n {
            let req = rbe.next_request();
            if req.interaction.is_update() {
                updates += 1;
                if req.interaction == Interaction::ShoppingCart {
                    rbe.on_response(
                        Interaction::ShoppingCart,
                        SessionUpdate {
                            cart: Some(CartId(1)),
                            customer: None,
                        },
                    );
                }
                if req.interaction == Interaction::BuyConfirm {
                    rbe.on_response(Interaction::BuyConfirm, SessionUpdate::default());
                }
            }
        }
        let ratio = updates as f64 / n as f64;
        assert!((0.17..=0.22).contains(&ratio), "shopping ratio {ratio}");
    }

    #[test]
    fn distinct_clients_generate_distinct_streams() {
        let mut a = Rbe::new(1, config(), 9);
        let mut b = Rbe::new(2, config(), 9);
        let seq_a: Vec<_> = (0..20).map(|_| a.next_request().interaction).collect();
        let seq_b: Vec<_> = (0..20).map(|_| b.next_request().interaction).collect();
        assert_ne!(seq_a, seq_b);
    }
}
