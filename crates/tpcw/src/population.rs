//! TPC-W database population.
//!
//! Follows the TPC-W v1.8 scaling rules used by the paper (§5.1): 10 000
//! items and a customer population proportional to the number of
//! emulated browsers (2880 × EB), with 30/50/70 EBs chosen to produce
//! initial state sizes of roughly 300/500/700 MB. Generation is a pure
//! function of [`PopulationParams`], so every replica (and every
//! recovery) regenerates an identical base population.
//!
//! Because several simulated replicas coexist in one process and the
//! base population is immutable, [`base_population`] memoizes it behind
//! an `Arc` keyed by parameters. For the same reason the read indexes
//! of the catalogue and the order history live here: built once in
//! [`generate`], shared by every replica, never serialized, and never
//! stale, because the workload only ever changes an item's cost, images
//! and stock.

use std::cmp::Ordering;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, OnceLock};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use treplica::impl_wire_struct;

use crate::inline::Inline;
use crate::model::{
    nominal, Address, AddressId, Author, AuthorId, CcXact, Country, CountryId, Customer,
    CustomerId, Item, ItemId, Order, OrderId, OrderLine, OrderLines, OrderStatus, SUBJECTS,
};
use crate::text::{Chars, Text, TextWriter};

/// Scaling parameters of a population.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PopulationParams {
    /// Number of items (the paper uses 10 000).
    pub items: u32,
    /// Emulated-browser scale factor (30/50/70 in the paper).
    pub ebs: u32,
    /// Generation seed.
    pub seed: u64,
}

impl PopulationParams {
    /// The paper's configuration for a given EB scale.
    pub fn paper(ebs: u32) -> Self {
        PopulationParams {
            items: 10_000,
            ebs,
            seed: 0x7bc0_57a7e,
        }
    }

    /// Number of customers (TPC-W: 2880 × EB).
    pub fn customers(&self) -> u32 {
        2_880 * self.ebs
    }

    /// Number of addresses (2 × customers).
    pub fn addresses(&self) -> u32 {
        2 * self.customers()
    }

    /// Number of initial orders (0.9 × customers).
    pub fn orders(&self) -> u32 {
        (9 * self.customers()) / 10
    }

    /// Number of authors (0.25 × items).
    pub fn authors(&self) -> u32 {
        self.items / 4
    }
}

impl_wire_struct!(PopulationParams { items, ebs, seed });

/// The immutable generated database shared by all replicas of a run.
#[derive(Debug)]
pub struct BasePopulation {
    /// Generation parameters.
    pub params: PopulationParams,
    /// All authors, indexed by id.
    pub authors: Vec<Author>,
    /// All items, indexed by id.
    pub items: Vec<Item>,
    /// The 92 countries.
    pub countries: Vec<Country>,
    /// All addresses, indexed by id.
    pub addresses: Vec<Address>,
    /// All customers, indexed by id.
    pub customers: Vec<Customer>,
    /// Initial orders, indexed by id.
    pub orders: Vec<Order>,
    /// Order lines grouped per order (same index as `orders`).
    pub order_lines: OrderLines,
    /// One credit-card transaction per order (same index).
    pub cc_xacts: Vec<CcXact>,
    /// Items per subject, in id order.
    pub by_subject: Vec<Vec<ItemId>>,
    /// Per subject, its [`PAGE`] newest items: publication date
    /// descending, equal dates in id order.
    pub newest_by_subject: Vec<Vec<ItemId>>,
    /// Per subject, its first [`PAGE`] items by title, equal titles in
    /// id order.
    pub titles_by_subject: Vec<Vec<ItemId>>,
    /// Each customer's newest initial order, indexed by customer id.
    pub newest_order: Vec<Option<OrderId>>,
    /// Substring index over the item titles.
    pub title_grams: GramIndex,
    /// Substring index over the last name of each item's author.
    pub author_grams: GramIndex,
}

/// Rows on a listing page: every search and listing shows at most this
/// many items (TPC-W clauses 2.6–2.8, 2.10).
pub const PAGE: usize = 50;

/// Which items' text contains each 1- and 2-byte string, in id order.
///
/// Answers "the first [`PAGE`] items whose text contains `term`" by
/// reading one posting list instead of every text: the items that
/// contain a term all contain its first two bytes.
#[derive(Debug)]
pub struct GramIndex {
    texts: u32,
    /// The items under gram `g` are `ids[starts[g]..starts[g + 1]]`.
    starts: Vec<u32>,
    ids: Vec<ItemId>,
}

/// Grams are numbered: the byte `b` is `b`, the bytes `ab` are
/// `256 + (a << 8 | b)`.
const GRAMS: usize = 256 + 65_536;

fn two_gram(a: u8, b: u8) -> usize {
    256 + ((a as usize) << 8 | b as usize)
}

impl GramIndex {
    /// Indexes `texts`, the `i`-th being the text of item `i`.
    #[expect(
        clippy::indexing_slicing,
        reason = "a gram is below `GRAMS`, the length of `seen`; `starts` and `next` hold one more"
    )]
    fn build(texts: &[&str]) -> GramIndex {
        // Calls `first(id, gram)` the first time each text shows each
        // gram: `seen[g]` is the last text that showed `g`.
        fn each_posting(texts: &[&str], seen: &mut [u32], mut first: impl FnMut(u32, usize)) {
            seen.fill(u32::MAX);
            for (id, text) in (0u32..).zip(texts) {
                let bytes = text.as_bytes();
                let one = bytes.iter().map(|b| *b as usize);
                for g in one.chain(bytes.windows(2).map(|w| two_gram(w[0], w[1]))) {
                    if seen[g] != id {
                        seen[g] = id;
                        first(id, g);
                    }
                }
            }
        }
        // Count the postings of each gram, then lay the lists end to end.
        let mut seen = vec![0; GRAMS];
        let mut starts = vec![0u32; GRAMS + 1];
        each_posting(texts, &mut seen, |_, g| starts[g + 1] += 1);
        for g in 0..GRAMS {
            starts[g + 1] += starts[g];
        }
        let mut ids = vec![ItemId(0); starts[GRAMS] as usize];
        let mut next = starts.clone();
        each_posting(texts, &mut seen, |id, g| {
            ids[next[g] as usize] = ItemId(id);
            next[g] += 1;
        });
        GramIndex {
            texts: texts.len() as u32,
            starts,
            ids,
        }
    }

    fn postings(&self, gram: usize) -> &[ItemId] {
        let bounds = self.starts.get(gram).zip(self.starts.get(gram + 1));
        let list = bounds.and_then(|(from, to)| self.ids.get(*from as usize..*to as usize));
        list.unwrap_or(&[])
    }

    /// The first [`PAGE`] items, in id order, whose text contains
    /// `term` — what a scan of `text(id).contains(term)` over all items
    /// returns. `text` must give the texts the index was built from.
    pub fn search<'a>(&self, term: &str, text: impl Fn(ItemId) -> &'a str) -> SearchPage {
        let first = |candidates: &[ItemId], whole_term: bool| {
            let matches = candidates.iter().copied();
            matches
                .filter(|id| whole_term || text(*id).contains(term))
                .collect()
        };
        match *term.as_bytes() {
            [] => (0..self.texts).map(ItemId).collect(),
            [b] => first(self.postings(b as usize), true),
            [a, b, ref rest @ ..] => first(self.postings(two_gram(a, b)), rest.is_empty()),
        }
    }
}

/// The items a search found: the first [`PAGE`], kept on the stack.
///
/// A search page is counted and priced, never stored, so it takes no
/// heap block.
pub type SearchPage = Inline<ItemId, PAGE>;

/// TPC-W user name derivation: a digit-letter encoding of the id.
pub fn c_uname(id: CustomerId) -> Text {
    let digits = std::iter::successors(Some(id.0), |n| Some(n / 26).filter(|q| *q != 0));
    let mut uname = TextWriter::<UNAME>::default();
    uname.push(b"U");
    for n in digits {
        uname.push(&[b'A' + (n % 26) as u8]);
    }
    uname.text()
}

/// A customer's password: the user name in lower case.
pub(crate) fn c_passwd(uname: &str) -> Text {
    let mut passwd = TextWriter::<UNAME>::default();
    for b in uname.bytes() {
        passwd.push(&[b.to_ascii_lowercase()]);
    }
    passwd.text()
}

/// Inverse of [`c_uname`]. A name with trailing `A`s (leading zero
/// digits) also decodes, to an id whose own name is shorter, so a lookup
/// compares the found customer's name with the one asked for.
pub(crate) fn uname_id(uname: &str) -> Option<CustomerId> {
    let digits = uname.strip_prefix('U')?.as_bytes();
    let mut n = 0u32;
    for &d in digits.iter().rev() {
        if !d.is_ascii_uppercase() {
            return None;
        }
        n = n.checked_mul(26)?.checked_add((d - b'A') as u32)?;
    }
    Some(CustomerId(n))
}

/// The longest user name: `U` and the seven base-26 digits of a `u32`.
const UNAME: usize = 8;

/// The stack of a random text's writer: the longest draw of [`Chars`],
/// whose length is a `u8`. A longer name or address moves to the heap.
const DRAW: usize = u8::MAX as usize;

/// A random text: one draw of `chars`. Inlined, so the constant
/// lengths of each call site fold in and the length draw, too, divides
/// by a constant.
#[inline]
pub(crate) fn rand_text(rng: &mut StdRng, chars: Chars) -> Text {
    TextWriter::<DRAW>::default().draw(rng, chars).text()
}

/// A random e-mail address: a draw of `chars` at `example.com`.
#[inline]
pub(crate) fn rand_email(rng: &mut StdRng, chars: Chars) -> Text {
    TextWriter::<DRAW>::default()
        .draw(rng, chars)
        .push(b"@example.com")
        .text()
}

/// A random full name: a draw of `first`, a space, a draw of `last`.
#[inline]
pub(crate) fn rand_name(rng: &mut StdRng, first: Chars, last: Chars) -> Text {
    TextWriter::<DRAW>::default()
        .draw(rng, first)
        .push(b" ")
        .draw(rng, last)
        .text()
}

/// Generates a base population (deterministic in `params`).
#[expect(
    clippy::indexing_slicing,
    reason = "ids and subjects are generated below the lengths of the tables they index"
)]
pub fn generate(params: PopulationParams) -> BasePopulation {
    use Chars::{Digits, Letters};
    let mut rng = StdRng::seed_from_u64(params.seed);
    let today: u32 = 14_000; // days since epoch, fixed reference date

    let countries: Vec<Country> = (0..92)
        .map(|i| Country {
            id: CountryId(i),
            name: Text::from_fmt(format_args!("Country{i}")),
            exchange_micros: 1_000_000 + (i as u64) * 13_337,
            currency: Text::from_fmt(format_args!("CUR{i}")),
        })
        .collect();

    let authors: Vec<Author> = (0..params.authors())
        .map(|i| Author {
            id: AuthorId(i),
            fname: rand_text(&mut rng, Letters(3, 12)),
            lname: rand_text(&mut rng, Letters(3, 15)),
            dob: rng.gen_range(1_000..today - 7_300),
            bio: rand_text(&mut rng, Letters(30, 60)),
        })
        .collect();

    let mut items: Vec<Item> = (0..params.items)
        .map(|i| {
            let srp = rng.gen_range(100..10_000u64);
            Item {
                id: ItemId(i),
                title: Text::from_fmt(format_args!("{} {i}", rand_text(&mut rng, Letters(6, 14)))),
                author: AuthorId(rng.gen_range(0..params.authors())),
                pub_date: rng.gen_range(today - 7_300..today),
                publisher: rand_text(&mut rng, Letters(8, 16)),
                subject: rng.gen_range(0..SUBJECTS.len() as u8),
                desc: rand_text(&mut rng, Letters(40, 80)),
                thumbnail: Text::from_fmt(format_args!("img/thumb/{i}.gif")),
                image: Text::from_fmt(format_args!("img/full/{i}.gif")),
                srp_cents: srp,
                cost_cents: srp * rng.gen_range(50..90u64) / 100,
                avail: rng.gen_range(today..today + 30),
                stock: rng.gen_range(10..31),
                isbn: rand_text(&mut rng, Digits(13)),
                pages: rng.gen_range(20..9_999),
                backing: rng.gen_range(0..5),
                dimensions: Text::from_fmt(format_args!(
                    "{}x{}x{}",
                    rng.gen_range(1..99u32),
                    rng.gen_range(1..99u32),
                    rng.gen_range(1..99u32)
                )),
                related: [ItemId(0); 5],
            }
        })
        .collect();
    // Related items: five uniform draws over all items, so one may
    // repeat or be the item itself.
    for item in items.iter_mut() {
        let mut related = [ItemId(0); 5];
        for r in related.iter_mut() {
            *r = ItemId(rng.gen_range(0..params.items));
        }
        item.related = related;
    }

    let addresses: Vec<Address> = (0..params.addresses())
        .map(|i| Address {
            id: AddressId(i),
            street1: rand_text(&mut rng, Letters(10, 30)),
            street2: rand_text(&mut rng, Letters(5, 20)),
            city: rand_text(&mut rng, Letters(4, 15)),
            state: rand_text(&mut rng, Letters(2, 10)),
            zip: rand_text(&mut rng, Digits(5)),
            country: CountryId(rng.gen_range(0..92)),
        })
        .collect();

    let customers: Vec<Customer> = (0..params.customers())
        .map(|i| {
            let id = CustomerId(i);
            let uname = c_uname(id);
            Customer {
                id,
                passwd: c_passwd(&uname),
                uname,
                fname: rand_text(&mut rng, Letters(3, 12)),
                lname: rand_text(&mut rng, Letters(3, 15)),
                addr: AddressId(rng.gen_range(0..params.addresses())),
                phone: rand_text(&mut rng, Digits(10)),
                email: rand_email(&mut rng, Letters(5, 12)),
                since: rng.gen_range(today - 730..today),
                last_login: 0,
                login: 0,
                expiration: 0,
                discount_bp: rng.gen_range(0..5_100),
                balance_cents: 0,
                ytd_pmt_cents: rng.gen_range(0..1_000_000),
                birthdate: rng.gen_range(1_000..today - 6_570),
                data: rand_text(&mut rng, Letters(100, 200)),
            }
        })
        .collect();

    let num_orders = params.orders();
    let mut orders = Vec::with_capacity(num_orders as usize);
    // An order has at most five lines, so the table never grows.
    let mut order_lines = OrderLines::with_capacity(num_orders as usize, 5 * num_orders as usize);
    let mut cc_xacts = Vec::with_capacity(num_orders as usize);
    for i in 0..num_orders {
        let customer = CustomerId(rng.gen_range(0..params.customers()));
        let n_lines = rng.gen_range(1..=5usize);
        let mut subtotal = 0u64;
        order_lines.push((0..n_lines).map(|_| {
            let item = ItemId(rng.gen_range(0..params.items));
            let qty = rng.gen_range(1..=4u32);
            subtotal += items[item.0 as usize].cost_cents * qty as u64;
            OrderLine {
                order: OrderId(i),
                item,
                qty,
                discount_bp: rng.gen_range(0..300),
                comments: rand_text(&mut rng, Letters(5, 20)),
            }
        }));
        let tax = subtotal * 825 / 10_000;
        let order = Order {
            id: OrderId(i),
            customer,
            date: (rng.gen_range(today - 60..today) as u64) * 86_400_000_000,
            subtotal_cents: subtotal,
            tax_cents: tax,
            total_cents: subtotal + tax + 300 + 100 * n_lines as u64,
            ship_type: rng.gen_range(0..6),
            ship_date: rng.gen_range(today..today + 7),
            bill_addr: AddressId(rng.gen_range(0..params.addresses())),
            ship_addr: AddressId(rng.gen_range(0..params.addresses())),
            status: match rng.gen_range(0..4u8) {
                0 => OrderStatus::Pending,
                1 => OrderStatus::Processing,
                2 => OrderStatus::Shipped,
                _ => OrderStatus::Denied,
            },
        };
        cc_xacts.push(CcXact {
            order: OrderId(i),
            cc_type: Text::from(
                ["VISA", "MASTERCARD", "DISCOVER", "AMEX", "DINERS"][rng.gen_range(0..5usize)],
            ),
            cc_num: rand_text(&mut rng, Digits(16)),
            cc_name: rand_name(&mut rng, Letters(3, 12), Letters(3, 15)),
            cc_expiry: today + rng.gen_range(10..730),
            auth_id: rand_text(&mut rng, Letters(15, 15)),
            amount_cents: order.total_cents,
            date: order.date,
            country: CountryId(rng.gen_range(0..92)),
        });
        orders.push(order);
    }
    order_lines.shrink_to_fit();

    let mut by_subject: Vec<Vec<ItemId>> = vec![Vec::new(); SUBJECTS.len()];
    for item in &items {
        by_subject[item.subject as usize].push(item.id);
    }
    // The stable sort keeps equal keys in the id order of `by_subject`.
    let first_page = |order: &dyn Fn(&Item, &Item) -> Ordering| -> Vec<Vec<ItemId>> {
        let mut pages = by_subject.clone();
        for page in &mut pages {
            page.sort_by(|a, b| order(&items[a.0 as usize], &items[b.0 as usize]));
            page.truncate(PAGE);
        }
        pages
    };
    let newest_by_subject = first_page(&|a, b| b.pub_date.cmp(&a.pub_date));
    let titles_by_subject = first_page(&|a, b| a.title.cmp(&b.title));

    let mut newest_order = vec![None; customers.len()];
    for order in &orders {
        newest_order[order.customer.0 as usize] = Some(order.id);
    }

    let titles: Vec<&str> = items.iter().map(|i| i.title.as_str()).collect();
    let title_grams = GramIndex::build(&titles);
    let lnames: Vec<&str> = items
        .iter()
        .map(|i| authors[i.author.0 as usize].lname.as_str())
        .collect();
    let author_grams = GramIndex::build(&lnames);

    BasePopulation {
        params,
        authors,
        items,
        countries,
        addresses,
        customers,
        orders,
        order_lines,
        cc_xacts,
        by_subject,
        newest_by_subject,
        titles_by_subject,
        newest_order,
        title_grams,
        author_grams,
    }
}

impl BasePopulation {
    /// The modeled in-memory size of the base population — calibrated so
    /// the paper's 30/50/70 EB populations land near 300/500/700 MB.
    pub fn nominal_bytes(&self) -> u64 {
        let p = &self.params;
        let lines = self.order_lines.line_count() as u64;
        p.customers() as u64 * nominal::CUSTOMER
            + p.addresses() as u64 * nominal::ADDRESS
            + p.orders() as u64 * nominal::ORDER
            + lines * nominal::ORDER_LINE
            + p.orders() as u64 * nominal::CC_XACT
            + p.items as u64 * nominal::ITEM
            + p.authors() as u64 * nominal::AUTHOR
            + 92 * nominal::COUNTRY
    }
}

/// Memoized shared base populations (one per parameter set per process).
#[expect(
    clippy::expect_used,
    reason = "a poisoned cache means a generator already panicked"
)]
pub fn base_population(params: PopulationParams) -> Arc<BasePopulation> {
    static CACHE: OnceLock<Mutex<BTreeMap<PopulationParams, Arc<BasePopulation>>>> =
        OnceLock::new();
    let cache = CACHE.get_or_init(|| Mutex::new(BTreeMap::new()));
    let mut guard = cache.lock().expect("population cache poisoned");
    guard
        .entry(params)
        .or_insert_with(|| Arc::new(generate(params)))
        .clone()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> PopulationParams {
        PopulationParams {
            items: 100,
            ebs: 1,
            seed: 42,
        }
    }

    #[test]
    fn scaling_rules_match_spec() {
        let p = PopulationParams::paper(30);
        assert_eq!(p.customers(), 86_400);
        assert_eq!(p.addresses(), 172_800);
        assert_eq!(p.orders(), 77_760);
        assert_eq!(p.authors(), 2_500);
    }

    #[test]
    fn generation_is_deterministic() {
        let a = generate(tiny());
        let b = generate(tiny());
        assert_eq!(a.items, b.items);
        assert_eq!(a.customers, b.customers);
        assert_eq!(a.orders, b.orders);
    }

    #[test]
    fn different_seeds_differ() {
        let a = generate(tiny());
        let b = generate(PopulationParams { seed: 43, ..tiny() });
        assert_ne!(a.items[0].title, b.items[0].title);
    }

    #[test]
    fn entity_counts_and_indexes() {
        let p = generate(tiny());
        assert_eq!(p.items.len(), 100);
        assert_eq!(p.customers.len(), 2_880);
        assert_eq!(p.addresses.len(), 5_760);
        assert_eq!(p.orders.len(), 2_592);
        assert_eq!(p.order_lines.len(), p.orders.len());
        assert_eq!(p.cc_xacts.len(), p.orders.len());
        let subject_total: usize = p.by_subject.iter().map(Vec::len).sum();
        assert_eq!(subject_total, 100);
        assert_eq!(p.newest_order.len(), 2_880);
    }

    /// Decoding inverts the derivation, so no two ids share a name.
    #[test]
    fn uname_decodes_to_its_customer() {
        for id in (0..10_000)
            .chain([17_575, 17_576, u32::MAX])
            .map(CustomerId)
        {
            assert_eq!(uname_id(&c_uname(id)), Some(id));
        }
        // A leading zero digit decodes; the lookup's name comparison is
        // what rejects it.
        assert_eq!(uname_id("UBA"), Some(CustomerId(1)));
        for not_a_uname in ["", "B", "ub", "U B", "UÉ", "UZZZZZZZ"] {
            assert_eq!(uname_id(not_a_uname), None, "{not_a_uname:?}");
        }
    }

    #[test]
    fn nominal_sizes_hit_paper_targets() {
        // 30 EB ≈ 300 MB, 50 ≈ 500 MB, 70 ≈ 700 MB (±20%).
        for (ebs, target_mb) in [(30u32, 300u64), (50, 500), (70, 700)] {
            let p = PopulationParams::paper(ebs);
            // Compute nominal size analytically without generating the
            // full population (fast): average 3 lines per order.
            let lines = p.orders() as u64 * 3;
            let total = p.customers() as u64 * nominal::CUSTOMER
                + p.addresses() as u64 * nominal::ADDRESS
                + p.orders() as u64 * nominal::ORDER
                + lines * nominal::ORDER_LINE
                + p.orders() as u64 * nominal::CC_XACT
                + p.items as u64 * nominal::ITEM
                + p.authors() as u64 * nominal::AUTHOR;
            let mb = total / 1_000_000;
            assert!(
                mb > target_mb * 8 / 10 && mb < target_mb * 12 / 10,
                "ebs={ebs}: {mb} MB vs target {target_mb} MB"
            );
        }
    }

    #[test]
    fn related_items_in_range() {
        let p = generate(tiny());
        for item in &p.items {
            for r in &item.related {
                assert!(r.0 < 100);
            }
        }
    }

    #[test]
    fn cache_returns_same_arc() {
        let a = base_population(tiny());
        let b = base_population(tiny());
        assert!(Arc::ptr_eq(&a, &b));
    }

    #[test]
    fn stock_within_spec_bounds() {
        let p = generate(tiny());
        for item in &p.items {
            assert!((10..=30).contains(&item.stock));
        }
    }
}
