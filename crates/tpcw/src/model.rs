//! The TPC-W bookstore entity model.
//!
//! These are the nine classes of the paper's object model (§4, task I):
//! the entities and relations of TPC-W's conceptual schema — author,
//! item, country, address, customer, order, order line, credit-card
//! transaction, and shopping cart. Field sets follow the TPC-W v1.8
//! schema closely (names shortened to Rust conventions).

use treplica::{impl_wire_enum, impl_wire_struct};

use crate::cart::CartLines;
use crate::text::Text;

macro_rules! id_type {
    ($(#[$doc:meta])* $name:ident) => {
        $(#[$doc])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
        pub struct $name(pub u32);

        impl_wire_struct!($name { 0 });

        impl std::fmt::Display for $name {
            fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                write!(f, "{}{}", stringify!($name), self.0)
            }
        }
    };
}

id_type!(
    /// Identifies an author.
    AuthorId
);
id_type!(
    /// Identifies a book (item).
    ItemId
);
id_type!(
    /// Identifies a country.
    CountryId
);
id_type!(
    /// Identifies a postal address.
    AddressId
);
id_type!(
    /// Identifies a customer.
    CustomerId
);
id_type!(
    /// Identifies an order.
    OrderId
);
id_type!(
    /// Identifies a shopping cart (session).
    CartId
);

/// Book subject categories (TPC-W defines 24).
pub const SUBJECTS: [&str; 24] = [
    "ARTS",
    "BIOGRAPHIES",
    "BUSINESS",
    "CHILDREN",
    "COMPUTERS",
    "COOKING",
    "HEALTH",
    "HISTORY",
    "HOME",
    "HUMOR",
    "LITERATURE",
    "MYSTERY",
    "NON-FICTION",
    "PARENTING",
    "POLITICS",
    "REFERENCE",
    "RELIGION",
    "ROMANCE",
    "SELF-HELP",
    "SCIENCE-NATURE",
    "SCIENCE-FICTION",
    "SPORTS",
    "YOUTH",
    "TRAVEL",
];

/// An author (TPC-W `AUTHOR`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Author {
    /// Primary key.
    pub id: AuthorId,
    /// First name.
    pub fname: Text,
    /// Last name.
    pub lname: Text,
    /// Date of birth (days since epoch).
    pub dob: u32,
    /// Short biography.
    pub bio: Text,
}
impl_wire_struct!(Author {
    id,
    fname,
    lname,
    dob,
    bio
});

/// A book (TPC-W `ITEM`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Item {
    /// Primary key.
    pub id: ItemId,
    /// Title.
    pub title: Text,
    /// Author.
    pub author: AuthorId,
    /// Publication date (days since epoch).
    pub pub_date: u32,
    /// Publisher name.
    pub publisher: Text,
    /// Subject index into [`SUBJECTS`].
    pub subject: u8,
    /// Description.
    pub desc: Text,
    /// Thumbnail image path.
    pub thumbnail: Text,
    /// Full image path.
    pub image: Text,
    /// Suggested retail price in cents.
    pub srp_cents: u64,
    /// Current cost in cents.
    pub cost_cents: u64,
    /// Availability date (days since epoch).
    pub avail: u32,
    /// Stock on hand.
    pub stock: i32,
    /// ISBN.
    pub isbn: Text,
    /// Page count.
    pub pages: u32,
    /// Binding type index.
    pub backing: u8,
    /// Physical dimensions.
    pub dimensions: Text,
    /// The five related items shown on the product page.
    pub related: [ItemId; 5],
}

impl_wire_struct!(Item {
    id,
    title,
    author,
    pub_date,
    publisher,
    subject,
    desc,
    thumbnail,
    image,
    srp_cents,
    cost_cents,
    avail,
    stock,
    isbn,
    pages,
    backing,
    dimensions,
    related
});

/// A country (TPC-W `COUNTRY`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Country {
    /// Primary key.
    pub id: CountryId,
    /// Name.
    pub name: Text,
    /// Exchange rate ×10⁶ against USD.
    pub exchange_micros: u64,
    /// Currency name.
    pub currency: Text,
}
impl_wire_struct!(Country {
    id,
    name,
    exchange_micros,
    currency
});

/// A postal address (TPC-W `ADDRESS`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Address {
    /// Primary key.
    pub id: AddressId,
    /// Street line 1.
    pub street1: Text,
    /// Street line 2.
    pub street2: Text,
    /// City.
    pub city: Text,
    /// State or region.
    pub state: Text,
    /// Postal code.
    pub zip: Text,
    /// Country.
    pub country: CountryId,
}
impl_wire_struct!(Address {
    street1,
    street2,
    city,
    state,
    zip,
    country,
    id
});

/// A registered customer (TPC-W `CUSTOMER`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Customer {
    /// Primary key.
    pub id: CustomerId,
    /// Unique user name.
    pub uname: Text,
    /// Password.
    pub passwd: Text,
    /// First name.
    pub fname: Text,
    /// Last name.
    pub lname: Text,
    /// Home address.
    pub addr: AddressId,
    /// Phone number.
    pub phone: Text,
    /// Email address.
    pub email: Text,
    /// Registration date (days since epoch).
    pub since: u32,
    /// Last login (µs timestamp).
    pub last_login: u64,
    /// Session login (µs timestamp).
    pub login: u64,
    /// Session expiration (µs timestamp).
    pub expiration: u64,
    /// Customer discount in basis points.
    pub discount_bp: u32,
    /// Account balance in cents (signed).
    pub balance_cents: i64,
    /// Year-to-date payments in cents.
    pub ytd_pmt_cents: i64,
    /// Birthdate (days since epoch).
    pub birthdate: u32,
    /// Free-form data field (TPC-W pads customers with this).
    pub data: Text,
}
impl_wire_struct!(Customer {
    id,
    uname,
    passwd,
    fname,
    lname,
    addr,
    phone,
    email,
    since,
    last_login,
    login,
    expiration,
    discount_bp,
    balance_cents,
    ytd_pmt_cents,
    birthdate,
    data
});

/// Order status lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OrderStatus {
    /// Order placed, awaiting processing.
    Pending,
    /// Order being processed.
    Processing,
    /// Order shipped.
    Shipped,
    /// Order denied (e.g. payment failure).
    Denied,
}

impl_wire_enum!(OrderStatus {
    0 => Pending,
    1 => Processing,
    2 => Shipped,
    3 => Denied,
});

/// Shipping methods (TPC-W defines six).
pub const SHIP_TYPES: [&str; 6] = ["AIR", "UPS", "FEDEX", "SHIP", "COURIER", "MAIL"];

/// An order (TPC-W `ORDERS`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Order {
    /// Primary key.
    pub id: OrderId,
    /// Ordering customer.
    pub customer: CustomerId,
    /// Order timestamp (µs, replica-deterministic).
    pub date: u64,
    /// Subtotal in cents.
    pub subtotal_cents: u64,
    /// Tax in cents.
    pub tax_cents: u64,
    /// Total in cents.
    pub total_cents: u64,
    /// Shipping method index into [`SHIP_TYPES`].
    pub ship_type: u8,
    /// Scheduled ship date (days since epoch).
    pub ship_date: u32,
    /// Billing address.
    pub bill_addr: AddressId,
    /// Shipping address.
    pub ship_addr: AddressId,
    /// Fulfilment status.
    pub status: OrderStatus,
}
impl_wire_struct!(Order {
    id,
    customer,
    date,
    subtotal_cents,
    tax_cents,
    total_cents,
    ship_type,
    ship_date,
    bill_addr,
    ship_addr,
    status
});

/// One line of an order (TPC-W `ORDER_LINE`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OrderLine {
    /// Order this line belongs to.
    pub order: OrderId,
    /// The purchased item.
    pub item: ItemId,
    /// Quantity.
    pub qty: u32,
    /// Line discount in basis points.
    pub discount_bp: u32,
    /// Gift-wrap / delivery comments.
    pub comments: Text,
}
impl_wire_struct!(OrderLine {
    order,
    item,
    qty,
    discount_bp,
    comments
});

/// A credit-card transaction (TPC-W `CC_XACTS`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CcXact {
    /// The paid order.
    pub order: OrderId,
    /// Card type.
    pub cc_type: Text,
    /// Card number (test data).
    pub cc_num: Text,
    /// Cardholder name.
    pub cc_name: Text,
    /// Expiry (days since epoch).
    pub cc_expiry: u32,
    /// Authorization id issued by the (emulated) payment gateway.
    pub auth_id: Text,
    /// Amount in cents.
    pub amount_cents: u64,
    /// Transaction timestamp (µs, replica-deterministic).
    pub date: u64,
    /// Country of the issuing bank.
    pub country: CountryId,
}
impl_wire_struct!(CcXact {
    order,
    cc_type,
    cc_num,
    cc_name,
    cc_expiry,
    auth_id,
    amount_cents,
    date,
    country
});

/// One line in a shopping cart.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CartLine {
    /// The item.
    pub item: ItemId,
    /// Quantity (0 removes the line).
    pub qty: u32,
}
impl_wire_struct!(CartLine { item, qty });

/// A shopping cart (TPC-W `SHOPPING_CART` + `SHOPPING_CART_LINE`).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Cart {
    /// Primary key (session-scoped).
    pub id: CartId,
    /// Creation/refresh timestamp (µs, replica-deterministic).
    pub time: u64,
    /// Current contents.
    pub lines: CartLines,
}
impl_wire_struct!(Cart { id, time, lines });

impl Cart {
    /// Adds `qty` of `item`, or sets the quantity if the line exists;
    /// `qty == 0` removes the line (TPC-W cart-update semantics).
    pub fn update(&mut self, item: ItemId, qty: u32) {
        match self.lines.iter_mut().find(|l| l.item == item) {
            Some(line) => {
                if qty == 0 {
                    self.lines.retain(|l| l.item != item);
                } else {
                    line.qty = qty;
                }
            }
            None => {
                if qty > 0 {
                    self.lines.push(CartLine { item, qty });
                }
            }
        }
    }

    /// Subtotal in cents given an item-price lookup.
    pub fn subtotal_cents(&self, price_of: impl Fn(ItemId) -> u64) -> u64 {
        self.lines
            .iter()
            .map(|l| price_of(l.item) * l.qty as u64)
            .sum()
    }

    /// Total number of units in the cart.
    pub fn units(&self) -> u32 {
        self.lines.iter().map(|l| l.qty).sum()
    }
}

/// Modeled in-memory footprints (bytes) of each entity in the original
/// Java implementation. These drive the *nominal* state size — the paper
/// populates with 30/50/70 emulated browsers to reach 300/500/700 MB
/// states, and recovery times are a function of these sizes.
pub mod nominal {
    /// Customer record footprint.
    pub const CUSTOMER: u64 = 1_024;
    /// Address record footprint.
    pub const ADDRESS: u64 = 256;
    /// Order record footprint.
    pub const ORDER: u64 = 768;
    /// Order line footprint.
    pub const ORDER_LINE: u64 = 256;
    /// Credit-card transaction footprint.
    pub const CC_XACT: u64 = 256;
    /// Item record footprint.
    pub const ITEM: u64 = 1_024;
    /// Author record footprint.
    pub const AUTHOR: u64 = 512;
    /// Country record footprint.
    pub const COUNTRY: u64 = 128;
    /// Cart footprint (header; lines add `ORDER_LINE` each).
    pub const CART: u64 = 256;
    /// Extra per-order growth (session objects, indexes, fragmentation)
    /// calibrated against the paper's observed end-of-run state sizes
    /// under the ordering profile (§5.1: 300→≈550 MB over one run).
    pub const ORDER_SESSION_OVERHEAD: u64 = 4_096;
}

#[cfg(test)]
mod tests {
    use super::*;
    use treplica::Wire;

    #[test]
    fn cart_update_semantics() {
        let mut c = Cart::default();
        c.update(ItemId(1), 2);
        c.update(ItemId(2), 1);
        assert_eq!(c.units(), 3);
        c.update(ItemId(1), 5);
        assert_eq!(c.units(), 6);
        c.update(ItemId(2), 0);
        assert_eq!(c.lines.len(), 1);
        c.update(ItemId(3), 0);
        assert_eq!(c.lines.len(), 1, "zero-qty add is a no-op");
    }

    #[test]
    fn cart_subtotal() {
        let mut c = Cart::default();
        c.update(ItemId(1), 2);
        c.update(ItemId(2), 3);
        let subtotal = c.subtotal_cents(|i| if i == ItemId(1) { 100 } else { 10 });
        assert_eq!(subtotal, 230);
    }

    #[test]
    fn entity_wire_roundtrips() {
        let item = Item {
            id: ItemId(7),
            title: "The Part-Time Parliament".into(),
            author: AuthorId(1),
            pub_date: 10_000,
            publisher: "ACM".into(),
            subject: 4,
            desc: "consensus".into(),
            thumbnail: "img/t7.gif".into(),
            image: "img/7.gif".into(),
            srp_cents: 4_999,
            cost_cents: 3_999,
            avail: 10_100,
            stock: 17,
            isbn: "0-123-45678-9".into(),
            pages: 33,
            backing: 1,
            dimensions: "9x6x1".into(),
            related: [ItemId(1), ItemId(2), ItemId(3), ItemId(4), ItemId(5)],
        };
        let bytes = item.to_bytes();
        assert_eq!(Item::from_bytes(&bytes).unwrap(), item);

        let order = Order {
            id: OrderId(1),
            customer: CustomerId(2),
            date: 123_456,
            subtotal_cents: 1000,
            tax_cents: 80,
            total_cents: 1180,
            ship_type: 2,
            ship_date: 10_200,
            bill_addr: AddressId(3),
            ship_addr: AddressId(4),
            status: OrderStatus::Pending,
        };
        assert_eq!(Order::from_bytes(&order.to_bytes()).unwrap(), order);

        let cart = Cart {
            id: CartId(9),
            time: 55,
            lines: vec![CartLine {
                item: ItemId(1),
                qty: 2,
            }]
            .into(),
        };
        assert_eq!(Cart::from_bytes(&cart.to_bytes()).unwrap(), cart);
    }

    #[test]
    fn order_status_tags() {
        for s in [
            OrderStatus::Pending,
            OrderStatus::Processing,
            OrderStatus::Shipped,
            OrderStatus::Denied,
        ] {
            assert_eq!(OrderStatus::from_bytes(&s.to_bytes()).unwrap(), s);
        }
        assert!(OrderStatus::from_bytes(&[9]).is_err());
    }

    #[test]
    fn subjects_and_ship_types_complete() {
        assert_eq!(SUBJECTS.len(), 24);
        assert_eq!(SHIP_TYPES.len(), 6);
    }
}
