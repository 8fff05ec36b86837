//! Simulated external services over a consistent synthetic world.
//!
//! The paper's CopyCat calls live Web services — "a zip code resolver that
//! uses Google Maps", geocoders, address resolution (§2.1, §4). Those are
//! unreachable here, so this crate builds the closest deterministic
//! equivalent: a seeded [`world::World`] of cities, streets, zips,
//! coordinates, venues and people, plus [`query::Service`] implementations
//! that answer from it:
//!
//! * [`ZipResolver`] — `(street, city) → zip` (Figure 2's Zipcode Resolver);
//! * [`Geocoder`] — `(street, city) → (lat, lon)`;
//! * [`AddressResolver`] — `(venue name) → (street, city)`; ambiguous
//!   names return multiple answers, as in Example 1;
//! * [`ReversePhone`] — `(phone) → (person, venue)` (§2.3's reverse
//!   directory);
//! * [`CurrencyConverter`] and [`UnitConverter`] — §4's conversions;
//! * [`faults::Flaky`] — deterministic failure/latency injection for
//!   robustness tests and the "propose replacement sources if a source is
//!   down" scenario.
//!
//! Because every service answers from the same `World`, integration
//! results are *checkable*: the experiments know the true zip of every
//! generated shelter.

pub mod faults;
pub mod health;
pub mod services;
pub mod world;

pub use faults::{Flaky, SavedFlakyState};
pub use health::{
    BreakerState, HealthRegistry, HealthSnapshot, Resilient, RetryPolicy, SavedServiceHealth,
};
pub use services::{
    AddressResolver, CurrencyConverter, Geocoder, ReversePhone, UnitConverter, ZipResolver,
};
pub use world::{Venue, World, WorldConfig};
