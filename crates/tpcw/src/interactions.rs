//! The 14 TPC-W web interactions and the three workload mixes.
//!
//! TPC-W specifies fourteen page types. The paper's dependability
//! benchmark uses the three standard profiles (§3): *browsing* (WIPSb,
//! 95% read), *shopping* (WIPS, 80% read — the reference profile) and
//! *ordering* (WIPSo, 50% read). We use the profiles' stationary
//! interaction distributions; the read/write split of each matches the
//! paper's stated ratios.

use rand::Rng;

/// One of the fourteen TPC-W web interactions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Interaction {
    /// Home page.
    Home,
    /// New-products listing for a subject.
    NewProducts,
    /// Best-sellers listing for a subject.
    BestSellers,
    /// Product detail page.
    ProductDetail,
    /// Search form.
    SearchRequest,
    /// Search result page.
    SearchResults,
    /// Shopping-cart display/update (update).
    ShoppingCart,
    /// Customer registration (update).
    CustomerRegistration,
    /// Buy request: payment page (update — session refresh).
    BuyRequest,
    /// Buy confirm: order placement (update).
    BuyConfirm,
    /// Order-status inquiry form.
    OrderInquiry,
    /// Order-status display.
    OrderDisplay,
    /// Admin item-edit form.
    AdminRequest,
    /// Admin item-edit confirmation (update).
    AdminConfirm,
}

/// All interactions in canonical order.
pub const ALL_INTERACTIONS: [Interaction; 14] = [
    Interaction::Home,
    Interaction::NewProducts,
    Interaction::BestSellers,
    Interaction::ProductDetail,
    Interaction::SearchRequest,
    Interaction::SearchResults,
    Interaction::ShoppingCart,
    Interaction::CustomerRegistration,
    Interaction::BuyRequest,
    Interaction::BuyConfirm,
    Interaction::OrderInquiry,
    Interaction::OrderDisplay,
    Interaction::AdminRequest,
    Interaction::AdminConfirm,
];

impl Interaction {
    /// Whether this interaction updates replicated state (must go
    /// through the total order; reads are served locally, paper §5.2).
    pub fn is_update(self) -> bool {
        matches!(
            self,
            Interaction::ShoppingCart
                | Interaction::CustomerRegistration
                | Interaction::BuyRequest
                | Interaction::BuyConfirm
                | Interaction::AdminConfirm
        )
    }

    /// Short display name.
    pub fn name(self) -> &'static str {
        match self {
            Interaction::Home => "home",
            Interaction::NewProducts => "new_products",
            Interaction::BestSellers => "best_sellers",
            Interaction::ProductDetail => "product_detail",
            Interaction::SearchRequest => "search_request",
            Interaction::SearchResults => "search_results",
            Interaction::ShoppingCart => "shopping_cart",
            Interaction::CustomerRegistration => "customer_registration",
            Interaction::BuyRequest => "buy_request",
            Interaction::BuyConfirm => "buy_confirm",
            Interaction::OrderInquiry => "order_inquiry",
            Interaction::OrderDisplay => "order_display",
            Interaction::AdminRequest => "admin_request",
            Interaction::AdminConfirm => "admin_confirm",
        }
    }
}

/// The three TPC-W workload profiles.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Profile {
    /// 95% read (WIPSb).
    Browsing,
    /// 80% read — the reference profile (WIPS).
    Shopping,
    /// 50% read (WIPSo).
    Ordering,
}

impl Profile {
    /// All profiles, in the paper's presentation order.
    pub const ALL: [Profile; 3] = [Profile::Browsing, Profile::Shopping, Profile::Ordering];

    /// The TPC-W metric name for this profile.
    pub fn metric_name(self) -> &'static str {
        match self {
            Profile::Browsing => "WIPSb",
            Profile::Shopping => "WIPS",
            Profile::Ordering => "WIPSo",
        }
    }

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            Profile::Browsing => "browsing",
            Profile::Shopping => "shopping",
            Profile::Ordering => "ordering",
        }
    }

    /// Stationary interaction frequencies (percent ×100, so 29.00% =
    /// 2900), in [`ALL_INTERACTIONS`] order. From the TPC-W v1.8 mix
    /// tables.
    pub fn weights(self) -> [u32; 14] {
        match self {
            Profile::Browsing => [
                2900, 1100, 1100, 2100, 1200, 1100, 200, 82, 75, 69, 30, 25, 10, 9,
            ],
            Profile::Shopping => [
                1600, 500, 500, 1700, 2000, 1700, 1160, 300, 260, 120, 75, 66, 10, 9,
            ],
            Profile::Ordering => [
                912, 46, 46, 1235, 1453, 1308, 1353, 1286, 1273, 1018, 25, 22, 12, 11,
            ],
        }
    }

    /// Fraction of interactions that are updates, per the weights.
    pub fn update_ratio(self) -> f64 {
        let w = self.weights();
        let total: u32 = w.iter().sum();
        let updates: u32 = ALL_INTERACTIONS
            .iter()
            .zip(w.iter())
            .filter(|(i, _)| i.is_update())
            .map(|(_, w)| *w)
            .sum();
        updates as f64 / total as f64
    }

    /// Samples the next interaction.
    pub fn sample<R: Rng>(self, rng: &mut R) -> Interaction {
        let w = self.weights();
        let total: u32 = w.iter().sum();
        let mut x = rng.gen_range(0..total);
        for (i, weight) in ALL_INTERACTIONS.iter().zip(w.iter()) {
            if x < *weight {
                return *i;
            }
            x -= *weight;
        }
        Interaction::Home
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn update_ratios_match_paper() {
        // Paper §3: browsing 5%, shopping 20%, ordering 50% updates
        // (within the tolerance of the official mix tables).
        let b = Profile::Browsing.update_ratio();
        assert!((0.03..=0.06).contains(&b), "browsing {b}");
        let s = Profile::Shopping.update_ratio();
        assert!((0.17..=0.21).contains(&s), "shopping {s}");
        let o = Profile::Ordering.update_ratio();
        assert!((0.47..=0.52).contains(&o), "ordering {o}");
    }

    #[test]
    fn weights_cover_all_interactions() {
        // Positional tables (these weights, the cluster's page costs)
        // read an interaction's row at its discriminant.
        for (i, interaction) in ALL_INTERACTIONS.into_iter().enumerate() {
            assert_eq!(interaction as usize, i, "{interaction:?}");
        }
        for p in Profile::ALL {
            let w = p.weights();
            assert_eq!(w.len(), 14);
            let total: u32 = w.iter().sum();
            assert!((9_900..=10_100).contains(&total), "{p:?} total {total}");
        }
    }

    #[test]
    fn sampling_approximates_weights() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut home = 0u32;
        let n = 100_000;
        for _ in 0..n {
            if Profile::Browsing.sample(&mut rng) == Interaction::Home {
                home += 1;
            }
        }
        let frac = home as f64 / n as f64;
        assert!((0.27..=0.31).contains(&frac), "home fraction {frac}");
    }

    #[test]
    fn update_classification() {
        assert!(Interaction::BuyConfirm.is_update());
        assert!(Interaction::ShoppingCart.is_update());
        assert!(!Interaction::Home.is_update());
        assert!(!Interaction::BestSellers.is_update());
        let updates = ALL_INTERACTIONS.iter().filter(|i| i.is_update()).count();
        assert_eq!(updates, 5);
    }

    #[test]
    fn metric_names_match_tpcw() {
        assert_eq!(Profile::Browsing.metric_name(), "WIPSb");
        assert_eq!(Profile::Shopping.metric_name(), "WIPS");
        assert_eq!(Profile::Ordering.metric_name(), "WIPSo");
    }
}
