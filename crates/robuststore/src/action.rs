//! The deterministic actions of RobustStore's state machine.
//!
//! Each update interaction of the bookstore becomes one action object
//! (paper §4, task II): every timestamp, random discount and payment
//! authorization is sampled *before* the action is constructed and
//! travels inside it, so all replicas apply identical state changes.

use tpcw::{CartId, CartLine, CustomerId, ItemId, NewCustomer, OrderId, Payment, StoreError, Text};
use treplica::impl_wire_enum;

/// A replicated update to the bookstore.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Action {
    /// Shopping-cart create/update.
    DoCart {
        /// Existing cart, if any.
        cart: Option<CartId>,
        /// Item to add with quantity.
        add: Option<(ItemId, u32)>,
        /// Line-quantity updates.
        updates: Vec<CartLine>,
        /// Item added if the cart ends up empty (pre-sampled).
        default_item: ItemId,
        /// Server timestamp (pre-sampled).
        now: u64,
    },
    /// New-customer registration (discount and timestamp pre-sampled —
    /// the paper's worked examples of removed non-determinism).
    RegisterCustomer {
        /// All registration fields.
        reg: NewCustomer,
    },
    /// Session refresh for a returning customer (Buy Request path).
    RefreshSession {
        /// The customer.
        customer: CustomerId,
        /// Server timestamp (pre-sampled).
        now: u64,
    },
    /// Order placement.
    BuyConfirm {
        /// The cart being purchased.
        cart: CartId,
        /// The purchasing customer.
        customer: CustomerId,
        /// Payment details (authorization id pre-sampled).
        payment: Payment,
        /// Shipping method.
        ship_type: u8,
        /// Server timestamp (pre-sampled) — the paper's order-creation
        /// time example.
        now: u64,
    },
    /// Admin item update.
    AdminUpdate {
        /// Item being updated.
        item: ItemId,
        /// New cost in cents.
        cost_cents: u64,
        /// New image path (pre-sampled).
        image: Text,
        /// New thumbnail path (pre-sampled).
        thumbnail: Text,
    },
}

impl_wire_enum!(Action {
    0 => DoCart { cart, add, updates, default_item, now },
    1 => RegisterCustomer { reg },
    2 => RefreshSession { customer, now },
    3 => BuyConfirm { cart, customer, payment, ship_type, now },
    4 => AdminUpdate { item, cost_cents, image, thumbnail },
});

/// What applying an action produced (identical at every replica).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Reply {
    /// A cart was created/updated.
    Cart(CartId),
    /// A customer was registered.
    Customer(CustomerId),
    /// A session was refreshed.
    SessionRefreshed,
    /// An order was placed.
    Order(OrderId),
    /// An item was updated.
    ItemUpdated,
    /// The operation failed deterministically (bad request); all
    /// replicas compute the same failure.
    Failed(StoreError),
}

impl Reply {
    /// Whether the action succeeded.
    pub fn is_ok(&self) -> bool {
        !matches!(self, Reply::Failed(_))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use treplica::Wire;

    fn roundtrip(a: Action) {
        let bytes = a.to_bytes();
        assert_eq!(a.wire_size(), bytes.len() as u64, "wire_size of {a:?}");
        assert_eq!(Action::from_bytes(&bytes).unwrap(), a);
    }

    #[test]
    fn all_actions_roundtrip() {
        roundtrip(Action::DoCart {
            cart: Some(CartId(3)),
            add: Some((ItemId(5), 2)),
            updates: vec![CartLine {
                item: ItemId(1),
                qty: 0,
            }],
            default_item: ItemId(9),
            now: 123,
        });
        roundtrip(Action::RegisterCustomer {
            reg: NewCustomer {
                fname: "A".into(),
                lname: "B".into(),
                phone: "5551234".into(),
                email: "a@b.c".into(),
                birthdate: 4000,
                data: "d".into(),
                discount_bp: 300,
                now: 777,
            },
        });
        roundtrip(Action::RefreshSession {
            customer: CustomerId(12),
            now: 55,
        });
        roundtrip(Action::BuyConfirm {
            cart: CartId(1),
            customer: CustomerId(2),
            payment: Payment {
                cc_type: "VISA".into(),
                cc_num: "4111".into(),
                cc_name: "N".into(),
                cc_expiry: 15000,
                auth_id: "AUTH".into(),
                country: 3,
            },
            ship_type: 4,
            now: 99,
        });
        roundtrip(Action::AdminUpdate {
            item: ItemId(6),
            cost_cents: 1299,
            image: "i.gif".into(),
            thumbnail: "t.gif".into(),
        });
    }

    #[test]
    fn bad_tag_rejected() {
        assert!(Action::from_bytes(&[77]).is_err());
    }

    #[test]
    fn reply_ok_classification() {
        assert!(Reply::Cart(CartId(1)).is_ok());
        assert!(Reply::Order(OrderId(1)).is_ok());
        assert!(!Reply::Failed(StoreError::NoSuchCart).is_ok());
    }
}
