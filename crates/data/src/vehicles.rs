//! The vehicle-class catalog (paper §IV-A1).
//!
//! The paper's vehicle classifier distinguishes "make, model, year, color",
//! trained on "32,000 images for 400 classes" (Stanford cars + crawled
//! images). [`VehicleCatalog`] produces a deterministic catalog of visually
//! distinguishable classes; the video generator renders each class with a
//! class-specific appearance so a classifier genuinely has signal to learn.

use simclock::SeededRng;

/// Identifier of a vehicle class within a catalog.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct VehicleClassId(pub u16);

/// One fine-grained vehicle class: make, model, year band, color.
#[derive(Debug, Clone, PartialEq)]
pub struct VehicleClass {
    /// Class id (index into the catalog).
    pub id: VehicleClassId,
    /// Manufacturer.
    pub make: String,
    /// Model name.
    pub model: String,
    /// Model year.
    pub year: u16,
    /// Color name.
    pub color: String,
    /// Rendering appearance: base intensity in `[0.2, 1.0]`.
    pub intensity: f32,
    /// Rendering appearance: aspect ratio (width/height) of the body.
    pub aspect: f32,
    /// Rendering appearance: texture stripe period in pixels (1..=4).
    pub stripe_period: u8,
}

const MAKES: &[&str] = &[
    "Ford",
    "Chevrolet",
    "Toyota",
    "Honda",
    "Nissan",
    "Dodge",
    "GMC",
    "Hyundai",
    "Kia",
    "Jeep",
];
const MODELS: &[&str] = &[
    "Sedan",
    "Coupe",
    "Pickup",
    "SUV",
    "Hatchback",
    "Van",
    "Crossover",
    "Wagon",
];
const COLORS: &[&str] = &[
    "black", "white", "silver", "red", "blue", "gray", "green", "gold",
];

/// A catalog of vehicle classes with deterministic, distinguishable
/// appearances.
///
/// # Examples
///
/// ```
/// use scdata::vehicles::VehicleCatalog;
///
/// let catalog = VehicleCatalog::generate(400, 7);
/// assert_eq!(catalog.len(), 400); // the paper's class count
/// let c = catalog.class(scdata::vehicles::VehicleClassId(0)).unwrap();
/// assert!(!c.make.is_empty());
/// ```
#[derive(Debug, Clone)]
pub struct VehicleCatalog {
    classes: Vec<VehicleClass>,
}

impl VehicleCatalog {
    /// Generates `n` classes (the paper's full catalog is 400).
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero or exceeds `u16::MAX`.
    pub fn generate(n: usize, seed: u64) -> Self {
        assert!(n > 0 && n <= u16::MAX as usize, "class count out of range");
        let mut rng = SeededRng::new(seed);
        let classes = (0..n)
            .map(|i| {
                let make = MAKES[i % MAKES.len()];
                let model = MODELS[(i / MAKES.len()) % MODELS.len()];
                let color = COLORS[(i / (MAKES.len() * MODELS.len())) % COLORS.len()];
                let year = 2000 + (i % 20) as u16;
                VehicleClass {
                    id: VehicleClassId(i as u16),
                    make: make.to_string(),
                    model: model.to_string(),
                    year,
                    color: color.to_string(),
                    // Appearance varies systematically with the class index so
                    // every class is separable, with a dash of seeded jitter.
                    intensity: 0.25
                        + 0.7 * (i as f32 / n as f32)
                        + rng.range_f64(-0.02, 0.02) as f32,
                    aspect: 1.2 + (i % 5) as f32 * 0.3,
                    stripe_period: 1 + (i % 4) as u8,
                }
            })
            .collect();
        VehicleCatalog { classes }
    }

    /// Number of classes.
    pub fn len(&self) -> usize {
        self.classes.len()
    }

    /// Whether the catalog is empty (never true for a generated catalog).
    pub fn is_empty(&self) -> bool {
        self.classes.is_empty()
    }

    /// Looks up a class by id.
    pub fn class(&self, id: VehicleClassId) -> Option<&VehicleClass> {
        self.classes.get(id.0 as usize)
    }

    /// A human-readable label, e.g. `"2007 Toyota Pickup (red)"`.
    pub fn label(&self, id: VehicleClassId) -> Option<String> {
        self.class(id)
            .map(|c| format!("{} {} {} ({})", c.year, c.make, c.model, c.color))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generates_requested_count() {
        assert_eq!(VehicleCatalog::generate(400, 1).len(), 400);
        assert_eq!(VehicleCatalog::generate(40, 1).len(), 40);
    }

    #[test]
    fn deterministic_under_seed() {
        let a = VehicleCatalog::generate(50, 2);
        let b = VehicleCatalog::generate(50, 2);
        assert_eq!(a.classes, b.classes);
    }

    #[test]
    fn classes_have_distinct_identities() {
        let c = VehicleCatalog::generate(400, 3);
        let mut labels: Vec<String> = (0..400)
            .map(|i| c.label(VehicleClassId(i)).unwrap())
            .collect();
        labels.sort();
        labels.dedup();
        assert_eq!(labels.len(), 400, "all labels unique");
    }

    #[test]
    fn appearance_varies_with_class() {
        let c = VehicleCatalog::generate(100, 4);
        let first = c.class(VehicleClassId(0)).unwrap();
        let last = c.class(VehicleClassId(99)).unwrap();
        assert!(last.intensity > first.intensity + 0.3);
    }

    #[test]
    fn out_of_range_lookup_is_none() {
        let c = VehicleCatalog::generate(10, 5);
        assert!(c.class(VehicleClassId(10)).is_none());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn zero_classes_panics() {
        let _ = VehicleCatalog::generate(0, 0);
    }
}
