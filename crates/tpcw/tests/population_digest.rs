//! The generated population and request streams, pinned byte for byte.
//!
//! Every replica regenerates the base population from its parameters
//! instead of receiving it, and every run of a seed replays the same
//! browser requests, so the order of the draws in `tpcw::generate` and
//! `Rbe::next_request` is a contract (DESIGN §2.4). This test pins the
//! length and FNV-1a of each table's wire encoding, of each read index,
//! of a few substring searches and of the first 2 000 requests of each
//! profile. A generator change that moves one byte fails here, and the
//! message names what moved and prints the lines to re-pin with.

use tpcw::{
    generate, CartId, CustomerId, Interaction, ItemId, PopulationParams, Profile, Rbe, RbeConfig,
    SessionUpdate,
};
use treplica::Wire;

const PARAMS: PopulationParams = PopulationParams {
    items: 10_000,
    ebs: 1,
    seed: 7,
};

/// `name len:fnv` of each table, index and search, in this order.
const POPULATION: &[&str] = &[
    "authors 204758:5a177a43d184a87c",
    "items 2324465:887b30f6d5116dc0",
    "countries 3112:0e8f676e0e4b59b6",
    "addresses 467582:497bb16c781cd13c",
    "customers 844458:e288bb864615c509",
    "orders 139972:1bcbf3cff9204c13",
    "order_lines 258129:1b48d3b78a90195a",
    "cc_xacts 256724:061e91e54511a02d",
    "by_subject 40100:8b649eac9ba4abfb",
    "newest_by_subject 4900:5632949db08cfadc",
    "titles_by_subject 4900:9dc457ce1e6b0c1a",
    "newest_order 9740:6128252226ad9a9e",
    "title search [] 204:1a5f70c525627df6",
    "author search [] 204:1a5f70c525627df6",
    "title search [q] 204:883e9b0b91125120",
    "author search [q] 204:ff893f7f38fa07a6",
    "title search [ab] 204:12b30594af79e22e",
    "author search [ab] 204:40cb6539d3d0255d",
    "title search [er ] 68:27b2781e40560c0d",
    "author search [er ] 4:4d25767f9dce13f5",
    "title search [zzzq] 8:4fcf484506b65d6b",
    "author search [zzzq] 4:4d25767f9dce13f5",
];

/// `name len:fnv` of the `Debug` text of each profile's requests.
const REQUESTS: &[&str] = &[
    "Browsing 197736:bbbc7e00f735ebeb",
    "Shopping 224026:121b9a3384b6f820",
    "Ordering 297887:95bd969e19139670",
];

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, b| {
        (hash ^ u64::from(*b)).wrapping_mul(0x0100_0000_01b3)
    })
}

fn pin(name: &str, bytes: &[u8]) -> String {
    format!("{name} {}:{:016x}", bytes.len(), fnv1a(bytes))
}

/// Fails naming the first line that moved, and prints every line.
fn assert_pinned(actual: &[String], pinned: &[&str]) {
    let moved = actual.iter().zip(pinned).find(|(a, p)| a != p);
    assert!(
        moved.is_none() && actual.len() == pinned.len(),
        "moved: {:?}\nre-pin with:\n{}",
        moved.map(|(a, p)| format!("{p} -> {a}")),
        actual
            .iter()
            .map(|line| format!("    \"{line}\",\n"))
            .collect::<String>()
    );
}

#[test]
fn generated_population_matches_pinned_digests() {
    let base = generate(PARAMS);
    let title = |id: ItemId| base.items[id.0 as usize].title.as_str();
    let lname = |id: ItemId| {
        let author = base.items[id.0 as usize].author;
        base.authors[author.0 as usize].lname.as_str()
    };
    let mut actual = vec![
        pin("authors", &base.authors.to_bytes()),
        pin("items", &base.items.to_bytes()),
        pin("countries", &base.countries.to_bytes()),
        pin("addresses", &base.addresses.to_bytes()),
        pin("customers", &base.customers.to_bytes()),
        pin("orders", &base.orders.to_bytes()),
        pin("order_lines", &base.order_lines.to_bytes()),
        pin("cc_xacts", &base.cc_xacts.to_bytes()),
        pin("by_subject", &base.by_subject.to_bytes()),
        pin("newest_by_subject", &base.newest_by_subject.to_bytes()),
        pin("titles_by_subject", &base.titles_by_subject.to_bytes()),
        pin("newest_order", &base.newest_order.to_bytes()),
    ];
    for term in ["", "q", "ab", "er ", "zzzq"] {
        let found = base.title_grams.search(term, title).to_bytes();
        actual.push(pin(&format!("title search [{term}]"), &found));
        let found = base.author_grams.search(term, lname).to_bytes();
        actual.push(pin(&format!("author search [{term}]"), &found));
    }
    assert_pinned(&actual, POPULATION);
}

/// The first 2 000 requests of one browser per profile. The session
/// follows each request as the server would answer it, so purchases
/// (which need a cart) and registrations (a new customer) show up.
#[test]
fn request_streams_match_pinned_digests() {
    let actual: Vec<String> = [Profile::Browsing, Profile::Shopping, Profile::Ordering]
        .into_iter()
        .map(|profile| {
            let config = RbeConfig {
                profile,
                think_mean_us: 1_000_000,
                items: PARAMS.items,
                customers: PARAMS.customers(),
            };
            let mut rbe = Rbe::new(3, config, PARAMS.seed);
            let mut text = String::new();
            for n in 0..2_000u32 {
                let request = rbe.next_request();
                text.push_str(&format!("{request:?}\n"));
                let update = match request.interaction {
                    Interaction::ShoppingCart => SessionUpdate {
                        cart: Some(CartId(n)),
                        customer: None,
                    },
                    Interaction::CustomerRegistration => SessionUpdate {
                        cart: None,
                        customer: Some(CustomerId(PARAMS.customers() + n)),
                    },
                    _ => SessionUpdate::default(),
                };
                rbe.on_response(request.interaction, update);
            }
            // The texts drawn only on these paths are in the digest.
            assert!(text.contains("BuyConfirm {"), "{profile:?}: no purchase");
            assert!(
                text.contains("returning: None"),
                "{profile:?}: no new customer"
            );
            pin(&format!("{profile:?}"), text.as_bytes())
        })
        .collect();
    assert_pinned(&actual, REQUESTS);
}
