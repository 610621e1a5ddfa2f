//! The in-memory bookstore: the database functionality behind the 14
//! web interactions.
//!
//! RobustStore replaces TPC-W's relational database with an object
//! model (paper §4): the methods here "represent all the database
//! functionality required by the bookstore". The store is split into an
//! immutable, regenerable, indexed [`BasePopulation`] (shared by every
//! replica via `Arc`) and a mutable [`Overlay`] holding everything the
//! workload changes — carts, new customers/orders, stock and item
//! updates. A checkpoint serializes only the parameters plus the
//! overlay, and restore regenerates the base and replays the overlay,
//! which keeps simulated checkpoints cheap while the *modeled*
//! checkpoint size tracks the paper's 300–700 MB states. A catalogue
//! read costs what its page shows; only the best-seller listing still
//! walks the order history.
//!
//! Every mutating method takes its timestamps/random values as
//! arguments: determinism is the caller's job (the `robuststore` facade
//! samples them before building actions — the paper's task II).

use std::cell::Cell;
use std::collections::BTreeMap;
use std::sync::Arc;

use treplica::{check_field, impl_wire_struct, Sink, Wire, WireError};

use crate::cart::CartLines;
use crate::inline::Inline;
use crate::model::{
    nominal, Cart, CartId, CartLine, CcXact, Customer, CustomerId, Item, ItemId, Order, OrderId,
    OrderLine, OrderLines, OrderStatus, SUBJECTS,
};
use crate::population::{
    base_population, c_passwd, c_uname, uname_id, BasePopulation, PopulationParams, SearchPage,
    PAGE,
};
use crate::table::IdTable;
use crate::text::Text;

/// Fields of a new-customer registration supplied by the web tier
/// (timestamps and discount pre-sampled for determinism).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct NewCustomer {
    /// First name.
    pub fname: Text,
    /// Last name.
    pub lname: Text,
    /// Phone.
    pub phone: Text,
    /// Email.
    pub email: Text,
    /// Birthdate (days since epoch).
    pub birthdate: u32,
    /// Free-form data.
    pub data: Text,
    /// Registration discount in basis points — *pre-sampled* by the
    /// caller (the paper's example of removed non-determinism).
    pub discount_bp: u32,
    /// Registration timestamp (µs) — pre-sampled.
    pub now: u64,
}
impl_wire_struct!(NewCustomer {
    fname,
    lname,
    phone,
    email,
    birthdate,
    data,
    discount_bp,
    now
});

/// Payment details for a purchase.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Payment {
    /// Card type.
    pub cc_type: Text,
    /// Card number.
    pub cc_num: Text,
    /// Cardholder.
    pub cc_name: Text,
    /// Expiry (days since epoch).
    pub cc_expiry: u32,
    /// Authorization id returned by the emulated payment gateway —
    /// pre-sampled (in the original it came from an external call).
    pub auth_id: Text,
    /// Issuing country.
    pub country: u32,
}
impl_wire_struct!(Payment {
    cc_type,
    cc_num,
    cc_name,
    cc_expiry,
    auth_id,
    country
});

/// The mutable part of the store (everything the workload changes).
///
/// The maps are `BTreeMap`s and the carts, keyed by an id the store
/// hands out densely, are an [`IdTable`], so the overlay — which is
/// replicated state and feeds the checkpoint encoding below — iterates
/// in key order by construction; the encoder needs no sorting pass and
/// two overlays that are `==` always encode to identical bytes.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Overlay {
    /// Live shopping carts, by cart id.
    pub carts: IdTable<Cart>,
    /// Next cart id.
    pub next_cart: u32,
    /// Customers registered during the run (id ≥ base count).
    pub new_customers: Vec<Customer>,
    /// Orders placed during the run (id ≥ base count).
    pub new_orders: Vec<Order>,
    /// Lines of the new orders (parallel to `new_orders`).
    pub new_order_lines: OrderLines,
    /// Credit-card transactions of the new orders (parallel).
    pub new_cc_xacts: Vec<CcXact>,
    /// Current stock where it differs from the base.
    pub stock: BTreeMap<u32, i32>,
    /// Admin item updates: id → (cost, image, thumbnail).
    pub item_updates: BTreeMap<u32, (u64, Text, Text)>,
    /// Session refreshes: customer id → (login, expiration).
    pub sessions: BTreeMap<u32, (u64, u64)>,
    /// Most recent order per customer (covers base + new orders).
    pub last_order: BTreeMap<u32, u32>,
}

/// The fields in declaration order. The carts are read as their
/// `(id, cart)` pairs and become a table once `next_cart` is read: no
/// cart's id reaches it, so a decode builds no table wider than the
/// carts the store had created.
impl Wire for Overlay {
    fn encode<S: Sink>(&self, out: &mut S) {
        self.carts.encode(out);
        self.next_cart.encode(out);
        self.new_customers.encode(out);
        self.new_orders.encode(out);
        self.new_order_lines.encode(out);
        self.new_cc_xacts.encode(out);
        self.stock.encode(out);
        self.item_updates.encode(out);
        self.sessions.encode(out);
        self.last_order.encode(out);
    }

    fn decode(input: &mut &[u8]) -> Result<Self, WireError> {
        let carts = Vec::decode(input)?;
        let next_cart = u32::decode(input)?;
        Ok(Overlay {
            carts: IdTable::from_rows(carts, next_cart)?,
            next_cart,
            new_customers: Wire::decode(input)?,
            new_orders: Wire::decode(input)?,
            new_order_lines: Wire::decode(input)?,
            new_cc_xacts: Wire::decode(input)?,
            stock: Wire::decode(input)?,
            item_updates: Wire::decode(input)?,
            sessions: Wire::decode(input)?,
            last_order: Wire::decode(input)?,
        })
    }

    fn check(input: &mut &[u8]) -> Result<(), WireError> {
        let highest = IdTable::<Cart>::check_rows(input)?;
        IdTable::<Cart>::check_end(highest, u32::decode(input)?)?;
        check_field(|o: &Self| Some(&o.new_customers), input)?;
        check_field(|o: &Self| Some(&o.new_orders), input)?;
        check_field(|o: &Self| Some(&o.new_order_lines), input)?;
        check_field(|o: &Self| Some(&o.new_cc_xacts), input)?;
        check_field(|o: &Self| Some(&o.stock), input)?;
        check_field(|o: &Self| Some(&o.item_updates), input)?;
        check_field(|o: &Self| Some(&o.sessions), input)?;
        check_field(|o: &Self| Some(&o.last_order), input)
    }
}

/// Errors from bookstore operations (malformed requests surface to the
/// client as HTTP errors, not replica failures).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StoreError {
    /// Unknown cart id.
    NoSuchCart,
    /// Unknown customer.
    NoSuchCustomer,
    /// Unknown item.
    NoSuchItem,
    /// Buy confirm on an empty cart.
    EmptyCart,
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::NoSuchCart => write!(f, "no such cart"),
            StoreError::NoSuchCustomer => write!(f, "no such customer"),
            StoreError::NoSuchItem => write!(f, "no such item"),
            StoreError::EmptyCart => write!(f, "cart is empty"),
        }
    }
}

impl std::error::Error for StoreError {}

/// The bookstore: shared immutable base + per-replica overlay.
///
/// ```
/// use tpcw::{Bookstore, ItemId, PopulationParams};
/// let params = PopulationParams { items: 100, ebs: 1, seed: 1 };
/// let mut store = Bookstore::open(params);
/// let cart = store.do_cart(None, Some((ItemId(3), 2)), &[], ItemId(0), 1_000)?;
/// assert_eq!(store.cart(cart)?.units(), 2);
/// # Ok::<(), tpcw::StoreError>(())
/// ```
pub struct Bookstore {
    base: Arc<BasePopulation>,
    overlay: Overlay,
    /// Scratch state of [`Bookstore::get_best_sellers`]: derived from the
    /// order history on every read, so it is never encoded or compared,
    /// and a clone starts it empty. A read takes it and puts it back.
    best_sellers: Cell<BestSellerTally>,
}

/// What a best-seller read keeps between reads, so that counting its
/// window and ranking a subject allocate nothing once every item sold
/// has an entry.
#[derive(Default)]
struct BestSellerTally {
    /// Reads so far: an entry stamped with an older read is stale.
    read: u64,
    /// Per item, the read that last counted it and the quantity that
    /// read counted.
    qty: BTreeMap<ItemId, (u64, u64)>,
    /// The read's subject items, ranked.
    ranked: Vec<(ItemId, u64)>,
}

impl Clone for Bookstore {
    fn clone(&self) -> Self {
        Bookstore {
            base: Arc::clone(&self.base),
            overlay: self.overlay.clone(),
            best_sellers: Cell::default(),
        }
    }
}

impl std::fmt::Debug for Bookstore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Bookstore")
            .field("base", &self.base)
            .field("overlay", &self.overlay)
            .finish()
    }
}

impl PartialEq for Bookstore {
    fn eq(&self, other: &Self) -> bool {
        self.base.params == other.base.params && self.overlay == other.overlay
    }
}

impl Bookstore {
    /// Opens the bookstore over the (memoized) population for `params`.
    pub fn open(params: PopulationParams) -> Bookstore {
        Bookstore {
            base: base_population(params),
            overlay: Overlay::default(),
            best_sellers: Cell::default(),
        }
    }

    /// The population parameters.
    pub fn params(&self) -> PopulationParams {
        self.base.params
    }

    /// Direct access to the overlay (checkpointing).
    pub fn overlay(&self) -> &Overlay {
        &self.overlay
    }

    /// Rebuilds a bookstore from parameters and an overlay (restore).
    pub fn from_parts(params: PopulationParams, overlay: Overlay) -> Bookstore {
        Bookstore {
            base: base_population(params),
            overlay,
            best_sellers: Cell::default(),
        }
    }

    /// The modeled in-memory size: base population plus workload growth.
    pub fn nominal_bytes(&self) -> u64 {
        let o = &self.overlay;
        let new_lines = o.new_order_lines.line_count() as u64;
        let cart_lines: u64 = o.carts.values().map(|c| c.lines.len() as u64).sum();
        self.base.nominal_bytes()
            + o.new_customers.len() as u64 * (nominal::CUSTOMER + nominal::ADDRESS)
            + o.new_orders.len() as u64
                * (nominal::ORDER + nominal::CC_XACT + nominal::ORDER_SESSION_OVERHEAD)
            + new_lines * nominal::ORDER_LINE
            + o.carts.len() as u64 * nominal::CART
            + cart_lines * nominal::ORDER_LINE
    }

    // ----- lookups spanning base + overlay -------------------------------

    fn total_customers(&self) -> u32 {
        self.base.params.customers() + self.overlay.new_customers.len() as u32
    }

    fn total_orders(&self) -> u32 {
        self.base.params.orders() + self.overlay.new_orders.len() as u32
    }

    /// Fetches a customer (base or registered during the run).
    pub fn customer(&self, id: CustomerId) -> Result<&Customer, StoreError> {
        let base_n = self.base.params.customers();
        if id.0 < base_n {
            self.base
                .customers
                .get(id.0 as usize)
                .ok_or(StoreError::NoSuchCustomer)
        } else {
            self.overlay
                .new_customers
                .get((id.0 - base_n) as usize)
                .ok_or(StoreError::NoSuchCustomer)
        }
    }

    /// Looks a customer up by user name.
    ///
    /// A user name encodes its customer's id, so this is a decode and a
    /// fetch; a name no customer carries decodes to nobody or to
    /// somebody else.
    pub fn customer_by_uname(&self, uname: &str) -> Result<&Customer, StoreError> {
        let id = uname_id(uname).ok_or(StoreError::NoSuchCustomer)?;
        self.customer(id)
            .ok()
            .filter(|c| c.uname == uname)
            .ok_or(StoreError::NoSuchCustomer)
    }

    /// Whether the catalogue has the item.
    pub fn has_item(&self, id: ItemId) -> bool {
        (id.0 as usize) < self.base.items.len()
    }

    /// Fetches an item with any admin updates applied.
    pub fn item(&self, id: ItemId) -> Result<Item, StoreError> {
        let mut item = self
            .base
            .items
            .get(id.0 as usize)
            .cloned()
            .ok_or(StoreError::NoSuchItem)?;
        if let Some((cost, image, thumb)) = self.overlay.item_updates.get(&id.0) {
            item.cost_cents = *cost;
            item.image = image.clone();
            item.thumbnail = thumb.clone();
        }
        if let Some(stock) = self.overlay.stock.get(&id.0) {
            item.stock = *stock;
        }
        Ok(item)
    }

    /// Current cost of an item in cents.
    pub fn item_cost(&self, id: ItemId) -> Result<u64, StoreError> {
        match self.overlay.item_updates.get(&id.0) {
            Some((cost, _, _)) => Ok(*cost),
            None => self
                .base
                .items
                .get(id.0 as usize)
                .map(|i| i.cost_cents)
                .ok_or(StoreError::NoSuchItem),
        }
    }

    /// Current stock of an item.
    pub fn stock(&self, id: ItemId) -> Result<i32, StoreError> {
        match self.overlay.stock.get(&id.0) {
            Some(s) => Ok(*s),
            None => self
                .base
                .items
                .get(id.0 as usize)
                .map(|i| i.stock)
                .ok_or(StoreError::NoSuchItem),
        }
    }

    /// An order with its lines and payment record.
    #[expect(
        clippy::indexing_slicing,
        reason = "the base tables hold one row per base order, and `i` is below `orders()`"
    )]
    pub fn order(&self, id: OrderId) -> Option<(&Order, &[OrderLine], &CcXact)> {
        let base_n = self.base.params.orders();
        if id.0 < base_n {
            let i = id.0 as usize;
            Some((
                &self.base.orders[i],
                self.base.order_lines.get(i)?,
                &self.base.cc_xacts[i],
            ))
        } else {
            let i = (id.0 - base_n) as usize;
            Some((
                self.overlay.new_orders.get(i)?,
                self.overlay.new_order_lines.get(i)?,
                self.overlay.new_cc_xacts.get(i)?,
            ))
        }
    }

    // ----- the 14 interactions' read paths -------------------------------

    /// Home page: the customer to greet + promotional items.
    pub fn get_home(&self, c_id: Option<CustomerId>) -> (Option<&Customer>, [ItemId; 5]) {
        let customer = c_id.and_then(|id| self.customer(id).ok());
        let promos = [0, 1, 2, 3, 4].map(|k| ItemId((k * 37) % self.base.params.items));
        (customer, promos)
    }

    /// New Products: the 50 newest items of a subject.
    pub fn get_new_products(&self, subject: u8) -> &[ItemId] {
        let page = self
            .base
            .newest_by_subject
            .get(subject as usize % SUBJECTS.len());
        page.map_or(&[], Vec::as_slice)
    }

    /// Best Sellers: top-50 items by quantity over the 3333 most recent
    /// orders, restricted to a subject (TPC-W clause 2.7).
    ///
    /// The window is counted afresh into the store's tally: an entry
    /// left from an earlier read restarts at zero when this read first
    /// touches it, and only entries this read touched are ranked. Once
    /// every item sold has an entry, a read allocates nothing: the page
    /// is held in place.
    pub fn get_best_sellers(&self, subject: u8) -> Inline<(ItemId, u64), PAGE> {
        let subject = subject as usize % SUBJECTS.len();
        let mut tally = self.best_sellers.take();
        tally.read += 1;
        let read = tally.read;
        // New orders newest-first, then base orders.
        let new_orders = self.overlay.new_order_lines.iter().rev();
        let window = new_orders.chain(self.base.order_lines.iter().rev());
        for lines in window.take(3_333) {
            for l in lines {
                let (stamp, qty) = tally.qty.entry(l.item).or_default();
                if *stamp != read {
                    *stamp = read;
                    *qty = 0;
                }
                *qty += l.qty as u64;
            }
        }
        let of_subject = |id: &ItemId| {
            self.base
                .items
                .get(id.0 as usize)
                .is_some_and(|it| it.subject as usize == subject)
        };
        tally.ranked.clear();
        tally.ranked.extend(
            tally
                .qty
                .iter()
                .filter(|(id, (stamp, _))| *stamp == read && of_subject(id))
                .map(|(id, (_, qty))| (*id, *qty)),
        );
        // Ids are unique, so the unstable sort ranks as a stable one.
        tally
            .ranked
            .sort_unstable_by_key(|(id, q)| (std::cmp::Reverse(*q), *id));
        let page = tally.ranked.iter().copied().collect();
        self.best_sellers.set(tally);
        page
    }

    /// Search by subject: first 50 items of the subject by title.
    pub fn search_by_subject(&self, subject: u8) -> &[ItemId] {
        let page = self
            .base
            .titles_by_subject
            .get(subject as usize % SUBJECTS.len());
        page.map_or(&[], Vec::as_slice)
    }

    /// Search by title substring.
    pub fn search_by_title(&self, term: &str) -> SearchPage {
        self.base.title_grams.search(term, |id| {
            let item = self.base.items.get(id.0 as usize);
            item.map_or("", |i| &i.title)
        })
    }

    /// Search by author last-name substring.
    pub fn search_by_author(&self, term: &str) -> SearchPage {
        self.base.author_grams.search(term, |id| {
            let item = self.base.items.get(id.0 as usize);
            let author = item.and_then(|i| self.base.authors.get(i.author.0 as usize));
            author.map_or("", |a| &a.lname)
        })
    }

    /// The customer's most recent order, if any.
    pub fn most_recent_order(&self, uname: &str) -> Result<Option<OrderId>, StoreError> {
        let c = self.customer_by_uname(uname)?;
        let during_run = self.overlay.last_order.get(&c.id.0).map(|o| OrderId(*o));
        let initial = || {
            self.base
                .newest_order
                .get(c.id.0 as usize)
                .copied()
                .flatten()
        };
        Ok(during_run.or_else(initial))
    }

    /// Fetches a cart.
    pub fn cart(&self, id: CartId) -> Result<&Cart, StoreError> {
        self.overlay.carts.get(id.0).ok_or(StoreError::NoSuchCart)
    }

    // ----- update paths (deterministic; used by replicated actions) ------

    /// Creates an empty cart, returning its id.
    pub fn create_cart(&mut self, now: u64) -> CartId {
        let id = CartId(self.overlay.next_cart);
        self.overlay.next_cart += 1;
        self.overlay.carts.insert(
            id.0,
            Cart {
                id,
                time: now,
                lines: CartLines::new(),
            },
        );
        id
    }

    /// Shopping-cart interaction: optionally creates the cart, applies
    /// the line updates, and adds `default_item` if the cart would end
    /// up empty (TPC-W clause 2.4.5; the random default item is sampled
    /// by the caller). Returns the cart id.
    pub fn do_cart(
        &mut self,
        cart_id: Option<CartId>,
        add: Option<(ItemId, u32)>,
        updates: &[CartLine],
        default_item: ItemId,
        now: u64,
    ) -> Result<CartId, StoreError> {
        let id = match cart_id {
            Some(id) if self.overlay.carts.contains_key(id.0) => id,
            Some(_) => return Err(StoreError::NoSuchCart),
            None => self.create_cart(now),
        };
        let Some(cart) = self.overlay.carts.get_mut(id.0) else {
            return Err(StoreError::NoSuchCart);
        };
        if let Some((item, qty)) = add {
            cart.update(item, qty.max(1));
        }
        for u in updates {
            cart.update(u.item, u.qty);
        }
        if cart.lines.is_empty() {
            cart.update(default_item, 1);
        }
        cart.time = now;
        Ok(id)
    }

    /// Registers a new customer with a fresh address (TPC-W's customer
    /// registration creates both). Returns the id.
    pub fn create_customer(&mut self, reg: &NewCustomer) -> CustomerId {
        let id = CustomerId(self.total_customers());
        let uname = c_uname(id);
        self.overlay.new_customers.push(Customer {
            id,
            passwd: c_passwd(&uname),
            uname,
            fname: reg.fname.clone(),
            lname: reg.lname.clone(),
            addr: crate::model::AddressId(0),
            phone: reg.phone.clone(),
            email: reg.email.clone(),
            since: (reg.now / 86_400_000_000) as u32,
            last_login: reg.now,
            login: reg.now,
            expiration: reg.now + 7_200_000_000,
            discount_bp: reg.discount_bp,
            balance_cents: 0,
            ytd_pmt_cents: 0,
            birthdate: reg.birthdate,
            data: reg.data.clone(),
        });
        id
    }

    /// Refreshes a customer session (Buy Request path).
    pub fn refresh_session(&mut self, c_id: CustomerId, now: u64) -> Result<(), StoreError> {
        self.customer(c_id)?;
        self.overlay
            .sessions
            .insert(c_id.0, (now, now + 7_200_000_000));
        Ok(())
    }

    /// Buy Confirm: turns a cart into an order + lines + payment record,
    /// adjusts stock (replenishing +21 when it would drop below 10, per
    /// TPC-W clause 2.10), clears the cart. Returns the order id.
    pub fn buy_confirm(
        &mut self,
        cart_id: CartId,
        c_id: CustomerId,
        payment: &Payment,
        ship_type: u8,
        now: u64,
    ) -> Result<OrderId, StoreError> {
        let discount_bp = self.customer(c_id)?.discount_bp;
        // Read in place: the cart leaves the store once, at the end, after
        // the last lookup that can fail.
        let cart = self
            .overlay
            .carts
            .get(cart_id.0)
            .ok_or(StoreError::NoSuchCart)?;
        if cart.lines.is_empty() {
            return Err(StoreError::EmptyCart);
        }
        let mut subtotal = 0u64;
        for l in cart.lines.iter() {
            subtotal += self.item_cost(l.item)? * l.qty as u64;
        }
        let subtotal = subtotal * (10_000 - discount_bp as u64) / 10_000;
        let tax = subtotal * 825 / 10_000;
        let total = subtotal + tax + 300 + 100 * cart.lines.len() as u64;

        let order_id = OrderId(self.total_orders());
        let customer_addr = self.customer(c_id)?.addr;
        let order = Order {
            id: order_id,
            customer: c_id,
            date: now,
            subtotal_cents: subtotal,
            tax_cents: tax,
            total_cents: total,
            ship_type: ship_type % 6,
            ship_date: (now / 86_400_000_000) as u32 + 1 + (ship_type as u32 % 7),
            bill_addr: customer_addr,
            ship_addr: customer_addr,
            status: OrderStatus::Pending,
        };
        // Stock adjustment per spec.
        for l in cart.lines.iter() {
            let current = self.stock(l.item)?;
            let after = current - l.qty as i32;
            let after = if after < 10 { after + 21 } else { after };
            self.overlay.stock.insert(l.item.0, after);
        }
        self.overlay.new_cc_xacts.push(CcXact {
            order: order_id,
            cc_type: payment.cc_type.clone(),
            cc_num: payment.cc_num.clone(),
            cc_name: payment.cc_name.clone(),
            cc_expiry: payment.cc_expiry,
            auth_id: payment.auth_id.clone(),
            amount_cents: total,
            date: now,
            country: crate::model::CountryId(payment.country % 92),
        });
        self.overlay.new_orders.push(order);
        self.overlay
            .new_order_lines
            .push(cart.lines.iter().map(|l| OrderLine {
                order: order_id,
                item: l.item,
                qty: l.qty,
                discount_bp,
                comments: Text::new(),
            }));
        self.overlay.last_order.insert(c_id.0, order_id.0);
        self.overlay.carts.remove(cart_id.0);
        Ok(order_id)
    }

    /// Admin Confirm: updates an item's cost and images. TPC-W's refresh
    /// of the item's related list is not modelled; `Item::related` keeps
    /// its generated value.
    pub fn admin_update(
        &mut self,
        item: ItemId,
        cost_cents: u64,
        image: Text,
        thumbnail: Text,
    ) -> Result<(), StoreError> {
        if !self.has_item(item) {
            return Err(StoreError::NoSuchItem);
        }
        self.overlay
            .item_updates
            .insert(item.0, (cost_cents, image, thumbnail));
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use treplica::Wire;

    fn store() -> Bookstore {
        Bookstore::open(PopulationParams {
            items: 200,
            ebs: 1,
            seed: 7,
        })
    }

    fn payment() -> Payment {
        Payment {
            cc_type: "VISA".into(),
            cc_num: "4111111111111111".into(),
            cc_name: "Test Buyer".into(),
            cc_expiry: 15_000,
            auth_id: "AUTH123".into(),
            country: 1,
        }
    }

    #[test]
    fn cart_lifecycle() {
        let mut s = store();
        let id = s
            .do_cart(None, Some((ItemId(3), 2)), &[], ItemId(0), 1_000)
            .unwrap();
        assert_eq!(s.cart(id).unwrap().units(), 2);
        // Update quantity and add another line.
        s.do_cart(
            Some(id),
            Some((ItemId(4), 1)),
            &[CartLine {
                item: ItemId(3),
                qty: 5,
            }],
            ItemId(0),
            2_000,
        )
        .unwrap();
        assert_eq!(s.cart(id).unwrap().units(), 6);
        // Removing everything re-adds the default item.
        s.do_cart(
            Some(id),
            None,
            &[
                CartLine {
                    item: ItemId(3),
                    qty: 0,
                },
                CartLine {
                    item: ItemId(4),
                    qty: 0,
                },
            ],
            ItemId(9),
            3_000,
        )
        .unwrap();
        let cart = s.cart(id).unwrap();
        assert_eq!(cart.lines.len(), 1);
        assert_eq!(cart.lines[0].item, ItemId(9));
    }

    #[test]
    fn unknown_cart_errors() {
        let mut s = store();
        assert_eq!(
            s.do_cart(Some(CartId(99)), None, &[], ItemId(0), 0),
            Err(StoreError::NoSuchCart)
        );
        assert_eq!(s.cart(CartId(99)).unwrap_err(), StoreError::NoSuchCart);
    }

    #[test]
    fn buy_confirm_creates_order_and_adjusts_stock() {
        let mut s = store();
        let cart = s
            .do_cart(None, Some((ItemId(3), 2)), &[], ItemId(0), 1_000)
            .unwrap();
        let stock_before = s.stock(ItemId(3)).unwrap();
        let oid = s
            .buy_confirm(cart, CustomerId(5), &payment(), 1, 5_000)
            .unwrap();
        let (order, lines, cc) = s.order(oid).unwrap();
        assert_eq!(order.customer, CustomerId(5));
        assert_eq!(order.date, 5_000);
        assert_eq!(lines.len(), 1);
        assert_eq!(cc.auth_id, "AUTH123");
        assert!(order.total_cents > order.subtotal_cents);
        // Stock decremented (or replenished if it crossed the floor).
        let stock_after = s.stock(ItemId(3)).unwrap();
        assert!(stock_after == stock_before - 2 || stock_after == stock_before - 2 + 21);
        // Cart consumed.
        assert!(s.cart(cart).is_err());
        // Most-recent-order index updated.
        let uname = s.customer(CustomerId(5)).unwrap().uname.clone();
        assert_eq!(s.most_recent_order(&uname).unwrap(), Some(oid));
    }

    #[test]
    fn buy_confirm_empty_cart_rejected() {
        let mut s = store();
        let cart = s.create_cart(0);
        assert_eq!(
            s.buy_confirm(cart, CustomerId(0), &payment(), 0, 0),
            Err(StoreError::EmptyCart)
        );
    }

    #[test]
    fn buy_confirm_errors_leave_the_cart_in_the_store() {
        let mut s = store();
        let empty = s.create_cart(0);
        let full = s
            .do_cart(None, Some((ItemId(3), 2)), &[], ItemId(0), 1_000)
            .unwrap();
        let before = s.overlay().clone();
        assert_eq!(
            s.buy_confirm(empty, CustomerId(0), &payment(), 0, 0),
            Err(StoreError::EmptyCart)
        );
        let nobody = CustomerId(u32::MAX);
        assert_eq!(
            s.buy_confirm(full, nobody, &payment(), 0, 0),
            Err(StoreError::NoSuchCustomer)
        );
        assert_eq!(s.overlay(), &before, "a refused purchase changes nothing");
        assert_eq!(s.cart(full).unwrap().units(), 2);
        assert!(s.cart(empty).is_ok());
    }

    #[test]
    fn stock_replenishes_below_floor() {
        let mut s = store();
        // Drain stock of an item with repeated purchases.
        let item = ItemId(10);
        for round in 0..20u64 {
            let cart = s
                .do_cart(None, Some((item, 4)), &[], ItemId(0), round)
                .unwrap();
            s.buy_confirm(cart, CustomerId(1), &payment(), 0, round)
                .unwrap();
            let stock = s.stock(item).unwrap();
            assert!(stock >= 6, "stock must replenish, got {stock}");
        }
    }

    #[test]
    fn customer_registration_and_lookup() {
        let mut s = store();
        let reg = NewCustomer {
            fname: "Ada".into(),
            lname: "Lovelace".into(),
            phone: "5551234567".into(),
            email: "ada@example.com".into(),
            birthdate: 4_000,
            data: "x".into(),
            discount_bp: 250,
            now: 9_000,
        };
        let id = s.create_customer(&reg);
        assert_eq!(id.0, s.params().customers());
        let c = s.customer(id).unwrap();
        assert_eq!(c.fname, "Ada");
        assert_eq!(c.discount_bp, 250);
        let found = s.customer_by_uname(&c.uname.clone()).unwrap();
        assert_eq!(found.id, id);
    }

    #[test]
    fn searches_bounded_to_50() {
        let s = store();
        for subj in 0..24u8 {
            assert!(s.search_by_subject(subj).len() <= 50);
            assert!(s.get_new_products(subj).len() <= 50);
            assert!(s.get_best_sellers(subj).len() <= 50);
        }
        assert!(s.search_by_title("a").len() <= 50);
        assert!(s.search_by_author("a").len() <= 50);
    }

    #[test]
    fn new_products_sorted_newest_first() {
        let s = store();
        let v = s.get_new_products(2);
        for w in v.windows(2) {
            let a = s.item(w[0]).unwrap().pub_date;
            let b = s.item(w[1]).unwrap().pub_date;
            assert!(a >= b);
        }
    }

    #[test]
    fn best_sellers_reflect_new_orders() {
        let mut s = store();
        // Buy a specific item many times; it must enter its subject's
        // best-seller list.
        let item = ItemId(42);
        let subject = s.item(item).unwrap().subject;
        for round in 0..30u64 {
            let cart = s
                .do_cart(None, Some((item, 4)), &[], ItemId(0), round)
                .unwrap();
            s.buy_confirm(cart, CustomerId(2), &payment(), 0, round)
                .unwrap();
        }
        let best = s.get_best_sellers(subject);
        assert!(
            best.iter().any(|(id, _)| *id == item),
            "heavily bought item missing from best sellers"
        );
    }

    #[test]
    fn admin_update_changes_only_the_item() {
        let mut s = store();
        let cart = s
            .do_cart(None, Some((ItemId(7), 3)), &[], ItemId(0), 1_000)
            .unwrap();
        s.buy_confirm(cart, CustomerId(5), &payment(), 1, 5_000)
            .unwrap();
        let best_sellers = |s: &Bookstore| {
            (0..24)
                .map(|k| s.get_best_sellers(k).to_vec())
                .collect::<Vec<_>>()
        };
        let lists = best_sellers(&s);
        let mut expected = s.overlay().clone();
        s.admin_update(ItemId(7), 1234, "new.gif".into(), "new_t.gif".into())
            .unwrap();
        expected
            .item_updates
            .insert(7, (1234, "new.gif".into(), "new_t.gif".into()));
        assert_eq!(s.overlay(), &expected, "only `item_updates` moves");
        assert_eq!(best_sellers(&s), lists);
        let item = s.item(ItemId(7)).unwrap();
        assert_eq!(item.cost_cents, 1234);
        assert_eq!(item.image, "new.gif");
        assert_eq!(s.item_cost(ItemId(7)).unwrap(), 1234);
    }

    #[test]
    fn admin_update_of_an_unknown_item_changes_nothing() {
        let mut s = store();
        let before = s.overlay().clone();
        let unknown = ItemId(s.params().items);
        assert_eq!(
            s.admin_update(unknown, 1, "i".into(), "t".into()),
            Err(StoreError::NoSuchItem)
        );
        assert_eq!(s.overlay(), &before);
    }

    #[test]
    fn overlay_roundtrips_through_wire() {
        let mut s = store();
        let cart = s
            .do_cart(None, Some((ItemId(3), 2)), &[], ItemId(0), 1_000)
            .unwrap();
        s.buy_confirm(cart, CustomerId(5), &payment(), 1, 5_000)
            .unwrap();
        s.do_cart(None, Some((ItemId(8), 1)), &[], ItemId(0), 6_000)
            .unwrap();
        s.admin_update(ItemId(7), 99, "i".into(), "t".into())
            .unwrap();
        let bytes = s.overlay().to_bytes();
        let decoded = Overlay::from_bytes(&bytes).unwrap();
        assert_eq!(&decoded, s.overlay());
        // Full store reconstruction matches.
        let s2 = Bookstore::from_parts(s.params(), decoded);
        assert_eq!(s2, s);
    }

    #[test]
    fn nominal_bytes_grow_with_orders() {
        let mut s = store();
        let before = s.nominal_bytes();
        let cart = s
            .do_cart(None, Some((ItemId(3), 2)), &[], ItemId(0), 1_000)
            .unwrap();
        s.buy_confirm(cart, CustomerId(5), &payment(), 1, 5_000)
            .unwrap();
        let after = s.nominal_bytes();
        assert!(after > before + nominal::ORDER, "growth {}", after - before);
    }

    #[test]
    fn home_page_greets_known_customer() {
        let s = store();
        let (customer, promos) = s.get_home(Some(CustomerId(3)));
        assert_eq!(customer.map(|c| c.id), Some(CustomerId(3)));
        assert_eq!(promos.len(), 5);
        let (anon, _) = s.get_home(None);
        assert!(anon.is_none());
    }
}
