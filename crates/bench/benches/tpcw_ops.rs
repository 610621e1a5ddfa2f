//! Bookstore operation micro-benchmarks: the database functionality
//! behind the 14 interactions (read paths and replicated updates), at
//! the population of the repo benchmark's two large workloads (10 000
//! items, 50 EB), so the rows here are the terms of its
//! `tpcw.store.read_ns.*` and `tpcw.store.update_ns`.

use criterion::{criterion_group, criterion_main, Criterion};
use tpcw::{c_uname, Bookstore, CartLine, CustomerId, ItemId, Payment, PopulationParams};

fn store() -> Bookstore {
    Bookstore::open(PopulationParams {
        items: 10_000,
        ebs: 50,
        seed: 5,
    })
}

fn payment() -> Payment {
    Payment {
        cc_type: "VISA".into(),
        cc_num: "4111111111111111".into(),
        cc_name: "Bench Buyer".into(),
        cc_expiry: 15_000,
        auth_id: "AUTHBENCH".into(),
        country: 3,
    }
}

fn bench_reads(c: &mut Criterion) {
    let s = store();
    c.bench_function("best_sellers", |b| {
        let mut subj = 0u8;
        b.iter(|| {
            subj = (subj + 1) % 24;
            std::hint::black_box(s.get_best_sellers(subj))
        })
    });
    c.bench_function("new_products", |b| {
        let mut subj = 0u8;
        b.iter(|| {
            subj = (subj + 1) % 24;
            std::hint::black_box(s.get_new_products(subj))
        })
    });
    c.bench_function("search_by_subject", |b| {
        let mut subj = 0u8;
        b.iter(|| {
            subj = (subj + 1) % 24;
            std::hint::black_box(s.search_by_subject(subj))
        })
    });
    // The emulated browsers search for one or two random letters.
    let terms = ["ab", "q", "zx", "e", "ou", "kq"];
    c.bench_function("search_by_title", |b| {
        let mut i = 0;
        b.iter(|| {
            i = (i + 1) % terms.len();
            std::hint::black_box(s.search_by_title(terms[i]))
        })
    });
    c.bench_function("search_by_author", |b| {
        let mut i = 0;
        b.iter(|| {
            i = (i + 1) % terms.len();
            std::hint::black_box(s.search_by_author(terms[i]))
        })
    });
    // One customer in three has no initial order: the case that used to
    // scan the whole order history.
    let unames: Vec<String> = (0..64).map(|i| c_uname(CustomerId(i * 2_111))).collect();
    c.bench_function("most_recent_order", |b| {
        let mut i = 0;
        b.iter(|| {
            i = (i + 1) % unames.len();
            std::hint::black_box(s.most_recent_order(&unames[i]).unwrap())
        })
    });
    c.bench_function("item_lookup", |b| {
        let mut i = 0u32;
        b.iter(|| {
            i = (i + 1) % 10_000;
            std::hint::black_box(s.item(ItemId(i)).unwrap())
        })
    });
}

fn bench_updates(c: &mut Criterion) {
    c.bench_function("cart_update", |b| {
        let mut s = store();
        let cart = s
            .do_cart(None, Some((ItemId(1), 1)), &[], ItemId(0), 0)
            .unwrap();
        let mut t = 0u64;
        b.iter(|| {
            t += 1;
            s.do_cart(
                Some(cart),
                Some((ItemId((t % 10_000) as u32), 1)),
                &[CartLine {
                    item: ItemId(((t + 1) % 10_000) as u32),
                    qty: 0,
                }],
                ItemId(0),
                t,
            )
            .unwrap()
        })
    });
    c.bench_function("buy_confirm", |b| {
        let mut s = store();
        let pay = payment();
        let mut t = 0u64;
        b.iter(|| {
            t += 1;
            let cart = s
                .do_cart(
                    None,
                    Some((ItemId((t % 10_000) as u32), 2)),
                    &[],
                    ItemId(0),
                    t,
                )
                .unwrap();
            s.buy_confirm(cart, CustomerId((t % 2_880) as u32), &pay, 1, t)
                .unwrap()
        })
    });
}

fn bench_population(c: &mut Criterion) {
    c.bench_function("generate_population_1eb", |b| {
        let mut seed = 0u64;
        b.iter(|| {
            seed += 1;
            std::hint::black_box(tpcw::generate(PopulationParams {
                items: 1_000,
                ebs: 1,
                seed,
            }))
        })
    });
}

criterion_group!(benches, bench_reads, bench_updates, bench_population);
criterion_main!(benches);
