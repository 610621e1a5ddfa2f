//! # tpcw — the TPC-W benchmark as a library
//!
//! Everything the paper's evaluation (§3, §5) needs from TPC-W, built
//! from the v1.8 specification: the bookstore entity model (the nine
//! replicated classes of RobustStore's object model), the standard
//! database population (10 000 items; 30/50/70 emulated browsers for
//! ≈300/500/700 MB states), the fourteen web interactions with the
//! three workload profiles (browsing/shopping/ordering = 95/80/50 %
//! reads), remote browser emulators with exponential think times, and
//! the WIPS/WIRT/accuracy metrics extended with the dependability
//! measures of the paper.
//!
//! The store itself ([`Bookstore`]) is deterministic: every mutating
//! operation takes its timestamps and sampled values as arguments, so
//! it can sit behind the `treplica` state machine unchanged (the
//! `robuststore` crate does exactly that).
//!
//! ## Example
//!
//! ```
//! use tpcw::{Bookstore, PopulationParams, Profile, Rbe, RbeConfig};
//!
//! let params = PopulationParams { items: 100, ebs: 1, seed: 1 };
//! let store = Bookstore::open(params);
//! assert!(store.nominal_bytes() > 0);
//!
//! let mut rbe = Rbe::new(0, RbeConfig {
//!     profile: Profile::Shopping,
//!     think_mean_us: 1_000_000,
//!     items: params.items,
//!     customers: params.customers(),
//! }, 42);
//! let request = rbe.next_request();
//! assert!(!request.interaction.name().is_empty());
//! ```

#![warn(missing_docs)]
#![warn(clippy::allow_attributes, clippy::allow_attributes_without_reason)]
#![warn(clippy::print_stdout, clippy::print_stderr, clippy::dbg_macro)]
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::indexing_slicing)]
#![deny(clippy::panic, clippy::unreachable)]
#![deny(clippy::todo, clippy::unimplemented)]
#![forbid(unsafe_code)]

mod cart;
mod interactions;
mod metrics;
pub mod model;
pub mod population;
mod rbe;
mod store;
mod text;

pub use cart::CartLines;
pub use interactions::{Interaction, Profile, ALL_INTERACTIONS};
pub use metrics::{linear_fit, r_squared, Recorder, Schedule};
pub use model::{
    Address, AddressId, Author, AuthorId, Cart, CartId, CartLine, CcXact, Country, CountryId,
    Customer, CustomerId, Item, ItemId, Order, OrderId, OrderLine, OrderStatus, SHIP_TYPES,
    SUBJECTS,
};
pub use population::{
    base_population, c_uname, generate, BasePopulation, PopulationParams, SearchPage,
};
pub use rbe::{Rbe, RbeConfig, RequestBody, SessionUpdate, WebRequest};
pub use store::{Bookstore, NewCustomer, Overlay, Payment, StoreError};
pub use text::Text;
