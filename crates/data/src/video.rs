//! Synthetic video frames with exact ground truth.
//!
//! Stands in for the paper's live DOTD/city camera feeds (§II-A1): grayscale
//! rasters onto which vehicles (textured rectangles with class-specific
//! appearance) are rendered over structured road backgrounds, with pixel
//! ground truth returned alongside — the labelled training data the paper
//! gets from the Stanford cars dataset and hand-labelled street footage.

use simclock::SeededRng;

use crate::vehicles::{VehicleCatalog, VehicleClassId};

/// A grayscale raster frame with intensities in `[0, 1]`.
#[derive(Debug, Clone, PartialEq)]
pub struct Frame {
    width: usize,
    height: usize,
    pixels: Vec<f32>,
}

impl Frame {
    /// Creates a black frame.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new(width: usize, height: usize) -> Self {
        assert!(width > 0 && height > 0, "dimensions must be positive");
        Frame {
            width,
            height,
            pixels: vec![0.0; width * height],
        }
    }

    /// Frame width in pixels.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Frame height in pixels.
    pub fn height(&self) -> usize {
        self.height
    }

    /// Row-major pixel intensities.
    pub fn pixels(&self) -> &[f32] {
        &self.pixels
    }

    /// Pixel at `(x, y)`.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    pub fn get(&self, x: usize, y: usize) -> f32 {
        assert!(x < self.width && y < self.height, "pixel out of bounds");
        self.pixels[y * self.width + x]
    }

    /// Sets pixel `(x, y)`, clamping intensity to `[0, 1]`. Out-of-bounds
    /// writes are ignored (objects may be partially off-frame).
    pub fn set(&mut self, x: usize, y: usize, v: f32) {
        if x < self.width && y < self.height {
            self.pixels[y * self.width + x] = v.clamp(0.0, 1.0);
        }
    }

    /// Adds Gaussian pixel noise with the given standard deviation.
    pub fn add_noise(&mut self, std_dev: f64, rng: &mut SeededRng) {
        for p in &mut self.pixels {
            *p = (*p + rng.gaussian(0.0, std_dev) as f32).clamp(0.0, 1.0);
        }
    }
}

/// A pixel-space bounding box (inclusive min, exclusive max).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BoxPx {
    /// Left edge.
    pub x0: usize,
    /// Top edge.
    pub y0: usize,
    /// Right edge (exclusive).
    pub x1: usize,
    /// Bottom edge (exclusive).
    pub y1: usize,
}

impl BoxPx {
    /// Box area in pixels.
    fn area(&self) -> usize {
        (self.x1.saturating_sub(self.x0)) * (self.y1.saturating_sub(self.y0))
    }

    /// Intersection-over-union with another box.
    pub fn iou(&self, other: &BoxPx) -> f64 {
        let ix0 = self.x0.max(other.x0);
        let iy0 = self.y0.max(other.y0);
        let ix1 = self.x1.min(other.x1);
        let iy1 = self.y1.min(other.y1);
        if ix1 <= ix0 || iy1 <= iy0 {
            return 0.0;
        }
        let inter = ((ix1 - ix0) * (iy1 - iy0)) as f64;
        let union = (self.area() + other.area()) as f64 - inter;
        inter / union
    }
}

/// Ground truth for one rendered vehicle.
#[derive(Debug, Clone, PartialEq)]
pub struct VehicleTruth {
    /// Where the vehicle is.
    pub bbox: BoxPx,
    /// Which class it is.
    pub class: VehicleClassId,
}

/// Generator of labelled vehicle frames.
///
/// # Examples
///
/// ```
/// use scdata::vehicles::VehicleCatalog;
/// use scdata::video::FrameGenerator;
///
/// let catalog = VehicleCatalog::generate(40, 1);
/// let mut gen = FrameGenerator::new(catalog, 32, 32, 2);
/// let (frames, labels) = gen.dataset(6, 1);
/// assert_eq!(frames[5].width(), 32);
/// assert_eq!(labels[5], 5);
/// ```
#[derive(Debug)]
pub struct FrameGenerator {
    catalog: VehicleCatalog,
    width: usize,
    height: usize,
    rng: SeededRng,
    noise: f64,
}

impl FrameGenerator {
    /// Creates a generator for `width`×`height` frames.
    pub fn new(catalog: VehicleCatalog, width: usize, height: usize, seed: u64) -> Self {
        FrameGenerator {
            catalog,
            width,
            height,
            rng: SeededRng::new(seed),
            noise: 0.03,
        }
    }

    /// Sets the additive pixel-noise level (builder style).
    pub fn noise(mut self, std_dev: f64) -> Self {
        self.noise = std_dev;
        self
    }

    fn road_background(&mut self) -> Frame {
        let mut f = Frame::new(self.width, self.height);
        // Asphalt base + lane stripe.
        for y in 0..self.height {
            for x in 0..self.width {
                let lane = usize::from(y == self.height / 2 && x % 4 < 2);
                f.set(x, y, 0.12 + 0.08 * lane as f32);
            }
        }
        f
    }

    fn render_vehicle(
        &mut self,
        frame: &mut Frame,
        class: VehicleClassId,
        cx: usize,
        cy: usize,
    ) -> BoxPx {
        let spec = self.catalog.class(class).expect("class in catalog").clone();
        // Body size from the aspect ratio; height ~ 1/4 of frame.
        let bh = (self.height / 4).max(3);
        let bw = ((bh as f32 * spec.aspect) as usize).clamp(3, self.width - 1);
        let x0 = cx.saturating_sub(bw / 2);
        let y0 = cy.saturating_sub(bh / 2);
        let x1 = (x0 + bw).min(self.width);
        let y1 = (y0 + bh).min(self.height);
        for y in y0..y1 {
            for x in x0..x1 {
                // Class-specific stripe texture over the base intensity.
                let stripe = usize::from((x - x0).is_multiple_of(spec.stripe_period as usize));
                let v = spec.intensity - 0.12 * stripe as f32;
                frame.set(x, y, v);
            }
        }
        // "Windows": darker band along the top quarter of the body.
        for y in y0..(y0 + (y1 - y0) / 4).min(y1) {
            for x in x0..x1 {
                frame.set(x, y, spec.intensity * 0.5);
            }
        }
        BoxPx { x0, y0, x1, y1 }
    }

    /// A centered, tightly framed single-vehicle crop (classification
    /// training data — the Stanford-cars analogue).
    fn vehicle_crop(&mut self, class: VehicleClassId) -> (Frame, VehicleTruth) {
        let mut frame = self.road_background();
        let jx = self.rng.index(self.width / 4);
        let jy = self.rng.index(self.height / 4);
        let cx = self.width / 2 + jx - self.width / 8;
        let cy = self.height / 2 + jy - self.height / 8;
        let bbox = self.render_vehicle(&mut frame, class, cx, cy);
        let noise = self.noise;
        frame.add_noise(noise, &mut self.rng);
        (frame, VehicleTruth { bbox, class })
    }

    /// A road scene containing `count` random-class vehicles (detection
    /// data). Ground truth lists every vehicle.
    pub fn scene(&mut self, count: usize) -> (Frame, Vec<VehicleTruth>) {
        let mut frame = self.road_background();
        let mut truths = Vec::with_capacity(count);
        for _ in 0..count {
            let class = VehicleClassId(self.rng.index(self.catalog.len()) as u16);
            let cx = self.rng.index(self.width);
            let cy = self.rng.index(self.height);
            let bbox = self.render_vehicle(&mut frame, class, cx, cy);
            truths.push(VehicleTruth { bbox, class });
        }
        let noise = self.noise;
        frame.add_noise(noise, &mut self.rng);
        (frame, truths)
    }

    /// A labelled dataset of `per_class` crops for each of the first
    /// `classes` catalog classes, interleaved. Returns `(frames, labels)`.
    ///
    /// With `classes = 400` and `per_class = 80` this reproduces the paper's
    /// 32,000-image corpus.
    pub fn dataset(&mut self, classes: usize, per_class: usize) -> (Vec<Frame>, Vec<usize>) {
        let classes = classes.min(self.catalog.len());
        let mut frames = Vec::with_capacity(classes * per_class);
        let mut labels = Vec::with_capacity(classes * per_class);
        for rep in 0..per_class {
            for c in 0..classes {
                let (f, _) = self.vehicle_crop(VehicleClassId(c as u16));
                frames.push(f);
                labels.push(c);
                let _ = rep;
            }
        }
        (frames, labels)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn generator(seed: u64) -> FrameGenerator {
        FrameGenerator::new(VehicleCatalog::generate(40, 1), 32, 32, seed)
    }

    #[test]
    fn frame_basics() {
        let mut f = Frame::new(4, 3);
        f.set(1, 2, 0.5);
        assert_eq!(f.get(1, 2), 0.5);
        f.set(99, 99, 1.0); // ignored, no panic
        assert_eq!(f.pixels().len(), 12);
    }

    #[test]
    fn set_clamps() {
        let mut f = Frame::new(2, 2);
        f.set(0, 0, 5.0);
        f.set(1, 1, -1.0);
        assert_eq!(f.get(0, 0), 1.0);
        assert_eq!(f.get(1, 1), 0.0);
    }

    #[test]
    fn crop_contains_vehicle() {
        let mut g = generator(3);
        let (frame, truth) = g.vehicle_crop(VehicleClassId(10));
        assert!(truth.bbox.area() > 0);
        // The vehicle body is brighter than asphalt.
        let b = truth.bbox;
        let (cx, cy) = ((b.x0 + b.x1) / 2, (b.y0 + b.y1) / 2);
        assert!(frame.get(cx, cy.min(frame.height() - 1)) > 0.15);
    }

    #[test]
    fn crops_deterministic_per_seed() {
        let (a, _) = generator(7).vehicle_crop(VehicleClassId(3));
        let (b, _) = generator(7).vehicle_crop(VehicleClassId(3));
        assert_eq!(a, b);
    }

    #[test]
    fn different_classes_look_different() {
        // Disable positional jitter influence by comparing mean intensity in
        // the truth bbox.
        let mut g = generator(4).noise(0.0);
        let (f1, t1) = g.vehicle_crop(VehicleClassId(0));
        let (f2, t2) = g.vehicle_crop(VehicleClassId(39));
        let mean_in = |f: &Frame, b: &BoxPx| {
            let mut s = 0.0;
            let mut n = 0;
            for y in b.y0..b.y1.min(f.height()) {
                for x in b.x0..b.x1.min(f.width()) {
                    s += f.get(x, y);
                    n += 1;
                }
            }
            s / n as f32
        };
        assert!(mean_in(&f2, &t2.bbox) > mean_in(&f1, &t1.bbox) + 0.2);
    }

    #[test]
    fn scene_has_requested_vehicles() {
        let mut g = generator(5);
        let (_, truths) = g.scene(3);
        assert_eq!(truths.len(), 3);
    }

    #[test]
    fn dataset_shape_and_balance() {
        let mut g = generator(6);
        let (frames, labels) = g.dataset(10, 4);
        assert_eq!(frames.len(), 40);
        for c in 0..10 {
            assert_eq!(labels.iter().filter(|&&l| l == c).count(), 4);
        }
    }

    #[test]
    fn iou_properties() {
        let a = BoxPx {
            x0: 0,
            y0: 0,
            x1: 10,
            y1: 10,
        };
        let b = BoxPx {
            x0: 5,
            y0: 5,
            x1: 15,
            y1: 15,
        };
        let c = BoxPx {
            x0: 20,
            y0: 20,
            x1: 30,
            y1: 30,
        };
        assert!((a.iou(&a) - 1.0).abs() < 1e-12);
        assert!((a.iou(&b) - 25.0 / 175.0).abs() < 1e-9);
        assert_eq!(a.iou(&c), 0.0);
        assert!((a.iou(&b) - b.iou(&a)).abs() < 1e-12);
    }

    #[test]
    fn noise_perturbs() {
        let mut g1 = generator(8).noise(0.0);
        let mut g2 = generator(8).noise(0.1);
        let (clean, _) = g1.vehicle_crop(VehicleClassId(0));
        let (noisy, _) = g2.vehicle_crop(VehicleClassId(0));
        assert_ne!(clean, noisy);
    }
}
