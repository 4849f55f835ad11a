//! Synthetic action clips (paper §IV-A2).
//!
//! The paper trains its suspicious-behaviour recognizer on "previously
//! recorded videos from the city's street and traffic cameras ... split into
//! clips of several minutes in length and label\[led\] into different
//! categories of suspicious behaviors and crime activities" — it names
//! jaywalking, hit-and-run events, and armed robberies. This module renders
//! multi-frame clips of moving actors whose *motion patterns* (not single
//! frames) distinguish the classes, so the CNN+LSTM architecture of Fig. 7 is
//! genuinely required: several classes are indistinguishable from any single
//! frame.

use simclock::SeededRng;

use crate::video::Frame;

/// Action/behaviour categories.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ActionClass {
    /// Steady slow movement along the sidewalk.
    Walking,
    /// Steady fast movement along the sidewalk.
    Running,
    /// Small random jitter around a fixed point.
    Loitering,
    /// Two actors rapidly oscillating toward/away from each other.
    Fighting,
    /// An actor crossing the road band mid-block.
    Jaywalking,
    /// A fast vehicle blob strikes a pedestrian blob and keeps going.
    HitAndRun,
}

impl ActionClass {
    /// All classes in stable order.
    pub const ALL: [ActionClass; 6] = [
        ActionClass::Walking,
        ActionClass::Running,
        ActionClass::Loitering,
        ActionClass::Fighting,
        ActionClass::Jaywalking,
        ActionClass::HitAndRun,
    ];

    /// The class's stable index (0..6).
    pub fn index(self) -> usize {
        Self::ALL
            .iter()
            .position(|&c| c == self)
            .expect("class in ALL")
    }

    /// Whether the paper's application would raise an operator alert.
    pub fn is_suspicious(self) -> bool {
        matches!(
            self,
            ActionClass::Fighting | ActionClass::Jaywalking | ActionClass::HitAndRun
        )
    }

    /// Human-readable name.
    pub fn name(self) -> &'static str {
        match self {
            ActionClass::Walking => "walking",
            ActionClass::Running => "running",
            ActionClass::Loitering => "loitering",
            ActionClass::Fighting => "fighting",
            ActionClass::Jaywalking => "jaywalking",
            ActionClass::HitAndRun => "hit-and-run",
        }
    }
}

/// A labelled sequence of frames.
#[derive(Debug, Clone, PartialEq)]
pub struct Clip {
    /// Frames in temporal order.
    pub frames: Vec<Frame>,
    /// Ground-truth class.
    pub class: ActionClass,
}

impl Clip {
    /// Number of frames.
    pub fn len(&self) -> usize {
        self.frames.len()
    }

    /// Whether the clip has no frames.
    pub fn is_empty(&self) -> bool {
        self.frames.is_empty()
    }
}

/// Generator of labelled action clips.
///
/// # Examples
///
/// ```
/// use scdata::actions::{ActionClass, ClipGenerator};
///
/// let mut gen = ClipGenerator::new(16, 16, 8, 42);
/// let (clips, labels) = gen.dataset(1);
/// assert_eq!(clips.len(), ActionClass::ALL.len());
/// assert_eq!(clips[0].len(), 8);
/// assert_eq!(clips[0].class.index(), labels[0]);
/// ```
#[derive(Debug)]
pub struct ClipGenerator {
    width: usize,
    height: usize,
    frames_per_clip: usize,
    rng: SeededRng,
}

impl ClipGenerator {
    /// Creates a generator of `frames_per_clip`-frame clips at
    /// `width`×`height`.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero or `frames_per_clip < 2`.
    pub fn new(width: usize, height: usize, frames_per_clip: usize, seed: u64) -> Self {
        assert!(width >= 8 && height >= 8, "frames must be at least 8x8");
        assert!(frames_per_clip >= 2, "clips need at least two frames");
        ClipGenerator {
            width,
            height,
            frames_per_clip,
            rng: SeededRng::new(seed),
        }
    }

    fn blank(&self) -> Frame {
        let mut f = Frame::new(self.width, self.height);
        // Road band across the middle third.
        let road_top = self.height / 3;
        let road_bot = 2 * self.height / 3;
        for y in road_top..road_bot {
            for x in 0..self.width {
                f.set(x, y, 0.15);
            }
        }
        f
    }

    fn draw_blob(frame: &mut Frame, cx: f64, cy: f64, r: usize, intensity: f32) {
        let (cx, cy) = (cx.round() as isize, cy.round() as isize);
        let r = r as isize;
        for dy in -r..=r {
            for dx in -r..=r {
                if dx * dx + dy * dy <= r * r {
                    let x = cx + dx;
                    let y = cy + dy;
                    if x >= 0 && y >= 0 {
                        frame.set(x as usize, y as usize, intensity);
                    }
                }
            }
        }
    }

    /// Generates one clip of the given class.
    fn clip(&mut self, class: ActionClass) -> Clip {
        let w = self.width as f64;
        let h = self.height as f64;
        let sidewalk_y = h * 0.85; // below the road band
        let t_len = self.frames_per_clip;
        let mut frames = Vec::with_capacity(t_len);

        // Initial positions/speeds with seeded jitter.
        let start_x = self.rng.range_f64(1.0, w * 0.3);
        let jitter = self.rng.range_f64(-1.0, 1.0);

        for t in 0..t_len {
            let mut frame = self.blank();
            let tf = t as f64;
            match class {
                ActionClass::Walking => {
                    let x = (start_x + tf * (w * 0.03)).min(w - 2.0);
                    Self::draw_blob(&mut frame, x, sidewalk_y + jitter, 1, 0.9);
                }
                ActionClass::Running => {
                    let x = (start_x + tf * (w * 0.1)).min(w - 2.0);
                    Self::draw_blob(&mut frame, x, sidewalk_y + jitter, 1, 0.9);
                }
                ActionClass::Loitering => {
                    let jx = self.rng.range_f64(-1.2, 1.2);
                    let jy = self.rng.range_f64(-1.2, 1.2);
                    Self::draw_blob(&mut frame, w * 0.5 + jx, sidewalk_y + jy, 1, 0.9);
                }
                ActionClass::Fighting => {
                    // Two blobs oscillating against each other.
                    let phase = if t % 2 == 0 { 1.0 } else { -1.0 };
                    let gap = 1.5 + phase;
                    Self::draw_blob(&mut frame, w * 0.5 - gap, sidewalk_y, 1, 0.9);
                    Self::draw_blob(&mut frame, w * 0.5 + gap, sidewalk_y, 1, 0.7);
                }
                ActionClass::Jaywalking => {
                    // Vertical crossing through the road band.
                    let y = h * 0.9 - tf * (h * 0.8 / t_len as f64);
                    Self::draw_blob(&mut frame, w * 0.5 + jitter, y, 1, 0.9);
                }
                ActionClass::HitAndRun => {
                    // Vehicle races along the road; pedestrian stands in the
                    // road and vanishes (knocked down) after contact.
                    let vx = (start_x + tf * (w * 0.15)).min(w - 2.0);
                    let road_y = h * 0.5;
                    Self::draw_blob(&mut frame, vx, road_y, 2, 0.6);
                    let ped_x = w * 0.6;
                    if vx < ped_x {
                        Self::draw_blob(&mut frame, ped_x, road_y, 1, 0.95);
                    }
                }
            }
            frame.add_noise(0.02, &mut self.rng);
            frames.push(frame);
        }
        Clip { frames, class }
    }

    /// A balanced labelled dataset: `per_class` clips of every class.
    /// Returns `(clips, label_indices)`.
    pub fn dataset(&mut self, per_class: usize) -> (Vec<Clip>, Vec<usize>) {
        let mut clips = Vec::new();
        let mut labels = Vec::new();
        for rep in 0..per_class {
            for &class in &ActionClass::ALL {
                clips.push(self.clip(class));
                labels.push(class.index());
                let _ = rep;
            }
        }
        (clips, labels)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn generator(seed: u64) -> ClipGenerator {
        ClipGenerator::new(16, 16, 8, seed)
    }

    #[test]
    fn clip_shape() {
        let mut g = generator(1);
        let c = g.clip(ActionClass::Walking);
        assert_eq!(c.len(), 8);
        assert_eq!(c.frames[0].width(), 16);
    }

    #[test]
    fn class_indices_stable() {
        for (i, c) in ActionClass::ALL.iter().enumerate() {
            assert_eq!(c.index(), i);
        }
    }

    #[test]
    fn suspicious_flags() {
        assert!(ActionClass::Fighting.is_suspicious());
        assert!(ActionClass::HitAndRun.is_suspicious());
        assert!(!ActionClass::Walking.is_suspicious());
    }

    #[test]
    fn deterministic_per_seed() {
        let a = generator(2).clip(ActionClass::Jaywalking);
        let b = generator(2).clip(ActionClass::Jaywalking);
        assert_eq!(a, b);
    }

    #[test]
    fn walking_and_running_differ_in_displacement() {
        // Blob center displacement over the clip distinguishes the classes.
        let mut g = generator(3);
        let centroid = |f: &Frame| {
            let mut sx = 0.0;
            let mut mass = 0.0;
            for y in 0..f.height() {
                for x in 0..f.width() {
                    let v = f.get(x, y);
                    if v > 0.5 {
                        sx += x as f32 * v;
                        mass += v;
                    }
                }
            }
            if mass > 0.0 {
                sx / mass
            } else {
                0.0
            }
        };
        let walk = g.clip(ActionClass::Walking);
        let run = g.clip(ActionClass::Running);
        let walk_d = centroid(walk.frames.last().unwrap()) - centroid(&walk.frames[0]);
        let run_d = centroid(run.frames.last().unwrap()) - centroid(&run.frames[0]);
        assert!(
            run_d > walk_d + 2.0,
            "running moves farther: {run_d} vs {walk_d}"
        );
    }

    #[test]
    fn jaywalking_crosses_road_band() {
        let mut g = generator(4);
        let clip = g.clip(ActionClass::Jaywalking);
        // Actor (intensity ~0.9) appears inside the road band in some frame.
        let road_top = 16 / 3;
        let road_bot = 2 * 16 / 3;
        let in_road = clip
            .frames
            .iter()
            .any(|f| (road_top..road_bot).any(|y| (0..16).any(|x| f.get(x, y) > 0.8)));
        assert!(in_road);
    }

    #[test]
    fn dataset_balanced() {
        let mut g = generator(5);
        let (clips, labels) = g.dataset(3);
        assert_eq!(clips.len(), 18);
        for i in 0..6 {
            assert_eq!(labels.iter().filter(|&&l| l == i).count(), 3);
        }
    }

    #[test]
    #[should_panic(expected = "at least two frames")]
    fn one_frame_clip_panics() {
        let _ = ClipGenerator::new(16, 16, 1, 0);
    }
}
