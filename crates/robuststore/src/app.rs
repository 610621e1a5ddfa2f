//! RobustStore as a Treplica application.
//!
//! The bookstore's critical state — the nine replicated classes —
//! implements [`Application`]: deterministic `apply`, checkpoint
//! `snapshot`/`restore`. Checkpoints serialize the population
//! parameters plus the mutation overlay; the *modeled* checkpoint size
//! is the full state footprint (the paper's 300–700 MB), which is what
//! recovery pays to reload from disk.

use tpcw::{Bookstore, Overlay, PopulationParams};
use treplica::{Application, Snapshot, Wire, WireError};

use crate::action::{Action, Reply};

/// The replicated bookstore state machine.
#[derive(Debug, Clone, PartialEq)]
pub struct RobustStore {
    store: Bookstore,
}

impl RobustStore {
    /// Opens the store over the (memoized) population for `params`.
    pub fn new(params: PopulationParams) -> RobustStore {
        RobustStore {
            store: Bookstore::open(params),
        }
    }

    /// Read access to the bookstore (the local read path: the paper
    /// serves read-only interactions without total order, §5.2).
    pub fn store(&self) -> &Bookstore {
        &self.store
    }

    /// The modeled in-memory state size.
    pub fn nominal_bytes(&self) -> u64 {
        self.store.nominal_bytes()
    }
}

impl Application for RobustStore {
    type Action = Action;
    type Reply = Reply;

    fn apply(&mut self, action: &Action) -> Reply {
        match action {
            Action::DoCart {
                cart,
                add,
                updates,
                default_item,
                now,
            } => {
                match self
                    .store
                    .do_cart(*cart, *add, updates, *default_item, *now)
                {
                    Ok(id) => Reply::Cart(id),
                    Err(e) => Reply::Failed(e),
                }
            }
            Action::RegisterCustomer { reg } => Reply::Customer(self.store.create_customer(reg)),
            Action::RefreshSession { customer, now } => {
                match self.store.refresh_session(*customer, *now) {
                    Ok(()) => Reply::SessionRefreshed,
                    Err(e) => Reply::Failed(e),
                }
            }
            Action::BuyConfirm {
                cart,
                customer,
                payment,
                ship_type,
                now,
            } => {
                match self
                    .store
                    .buy_confirm(*cart, *customer, payment, *ship_type, *now)
                {
                    Ok(order) => Reply::Order(order),
                    Err(e) => Reply::Failed(e),
                }
            }
            Action::AdminUpdate {
                item,
                cost_cents,
                image,
                thumbnail,
            } => {
                match self
                    .store
                    .admin_update(*item, *cost_cents, image.clone(), thumbnail.clone())
                {
                    Ok(()) => Reply::ItemUpdated,
                    Err(e) => Reply::Failed(e),
                }
            }
        }
    }

    fn snapshot(&self) -> Snapshot {
        let mut data = Vec::new();
        self.store.params().encode(&mut data);
        self.store.overlay().encode(&mut data);
        Snapshot {
            data,
            nominal_bytes: self.store.nominal_bytes(),
        }
    }

    fn restore(data: &[u8]) -> Result<Self, WireError> {
        let mut input = data;
        let params = PopulationParams::decode(&mut input)?;
        let overlay = Overlay::decode(&mut input)?;
        Ok(RobustStore {
            store: Bookstore::from_parts(params, overlay),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::facade::{Prepared, TpcwDatabase};
    use tpcw::{
        Cart, CartId, CartLines, CustomerId, ItemId, Payment, Profile, Rbe, RbeConfig,
        SessionUpdate,
    };

    fn tiny() -> PopulationParams {
        PopulationParams {
            items: 150,
            ebs: 1,
            seed: 3,
        }
    }

    fn cart_action(now: u64) -> Action {
        Action::DoCart {
            cart: None,
            add: Some((ItemId(4), 2)),
            updates: vec![],
            default_item: ItemId(0),
            now,
        }
    }

    #[test]
    fn apply_is_deterministic_across_replicas() {
        let mut a = RobustStore::new(tiny());
        let mut b = RobustStore::new(tiny());
        let actions = vec![
            cart_action(10),
            Action::BuyConfirm {
                cart: CartId(0),
                customer: CustomerId(7),
                payment: Payment {
                    cc_type: "VISA".into(),
                    cc_num: "4111".into(),
                    cc_name: "N".into(),
                    cc_expiry: 15_000,
                    auth_id: "AUTH1".into(),
                    country: 2,
                },
                ship_type: 1,
                now: 20,
            },
            Action::RefreshSession {
                customer: CustomerId(3),
                now: 30,
            },
        ];
        for act in &actions {
            assert_eq!(a.apply(act), b.apply(act));
        }
        assert_eq!(a, b);

        // Then the web tier's stream: a Shopping-mix browser whose
        // updates the facade turns into actions with their randomness
        // and clock sampled up front (the paper's §4 tasks I and II).
        let params = tiny();
        let mut rbe = Rbe::new(
            1,
            RbeConfig {
                profile: Profile::Shopping,
                think_mean_us: 1,
                items: params.items,
                customers: params.customers(),
            },
            2024,
        );
        let mut facade = TpcwDatabase::new(7);
        let mut writes = 0;
        for i in 0..400u64 {
            let request = rbe.next_request();
            let session = match facade.prepare(&request, 1_000_000 + i * 137_000) {
                Prepared::Read(_) => SessionUpdate::default(),
                Prepared::Write(action) => {
                    writes += 1;
                    let reply = a.apply(&action);
                    assert_eq!(reply, b.apply(&action), "replicas disagreed on {action:?}");
                    TpcwDatabase::write_result(request.interaction, &reply).session
                }
            };
            rbe.on_response(request.interaction, session);
        }
        assert!(writes > 20, "only {writes} updates in the stream");
        assert_eq!(a, b);
        // A third replica rebuilt from the checkpoint alone, as recovery does.
        assert_eq!(RobustStore::restore(&a.snapshot().data).unwrap(), a);
    }

    #[test]
    fn deterministic_failures_replicate() {
        let mut a = RobustStore::new(tiny());
        let reply = a.apply(&Action::BuyConfirm {
            cart: CartId(55),
            customer: CustomerId(1),
            payment: Payment {
                cc_type: "VISA".into(),
                cc_num: "4".into(),
                cc_name: "N".into(),
                cc_expiry: 1,
                auth_id: "A".into(),
                country: 0,
            },
            ship_type: 0,
            now: 1,
        });
        assert_eq!(reply, Reply::Failed(tpcw::StoreError::NoSuchCart));
    }

    #[test]
    fn snapshot_restore_roundtrip_preserves_state() {
        let mut a = RobustStore::new(tiny());
        a.apply(&cart_action(10));
        a.apply(&Action::AdminUpdate {
            item: ItemId(9),
            cost_cents: 777,
            image: "i".into(),
            thumbnail: "t".into(),
        });
        let snap = a.snapshot();
        assert_eq!(snap.nominal_bytes, a.nominal_bytes());
        let b = RobustStore::restore(&snap.data).unwrap();
        assert_eq!(a, b);
        assert_eq!(b.store().item_cost(ItemId(9)).unwrap(), 777);
    }

    #[test]
    fn snapshot_data_is_compact_but_nominal_is_large() {
        // The simulated checkpoint bytes stay small (overlay only) while
        // the modeled size reflects the full state — the key trick that
        // keeps simulating 700 MB states cheap.
        let a = RobustStore::new(tiny());
        let snap = a.snapshot();
        assert!(snap.data.len() < 10_000, "data {} bytes", snap.data.len());
        assert!(
            snap.nominal_bytes > 1_000_000,
            "nominal {}",
            snap.nominal_bytes
        );
    }

    /// A catalogue past 65 536 items sells its last item, and the one
    /// live cart is the last of 70 001 created: a replica restores both
    /// from its checkpoint.
    #[test]
    fn restore_takes_high_item_and_cart_ids() {
        let params = PopulationParams {
            items: 70_000,
            ebs: 1,
            seed: 3,
        };
        let high = ItemId(params.items - 1);
        let mut a = RobustStore::new(params);
        let before = a.store().stock(high).unwrap();
        a.apply(&Action::DoCart {
            cart: None,
            add: Some((high, 2)),
            updates: vec![],
            default_item: ItemId(0),
            now: 10,
        });
        let bought = a.apply(&Action::BuyConfirm {
            cart: CartId(0),
            customer: CustomerId(7),
            payment: Payment {
                cc_type: "VISA".into(),
                cc_num: "4111".into(),
                cc_name: "N".into(),
                cc_expiry: 15_000,
                auth_id: "AUTH1".into(),
                country: 2,
            },
            ship_type: 1,
            now: 20,
        });
        assert!(matches!(bought, Reply::Order(_)), "{bought:?}");
        assert_ne!(a.store().stock(high).unwrap(), before);
        let mut overlay = a.store().overlay().clone();
        let last = CartId(70_000);
        overlay.carts.insert(
            last.0,
            Cart {
                id: last,
                time: 30,
                lines: CartLines::new(),
            },
        );
        overlay.next_cart = last.0 + 1;
        let a = RobustStore {
            store: Bookstore::from_parts(params, overlay),
        };
        let b = RobustStore::restore(&a.snapshot().data).unwrap();
        assert_eq!(a, b);
        assert_eq!(b.store().stock(high), a.store().stock(high));
        assert!(b.store().cart(last).is_ok());
    }

    #[test]
    fn restore_rejects_garbage() {
        assert!(RobustStore::restore(&[1, 2, 3]).is_err());
    }
}
