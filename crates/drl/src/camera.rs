//! The smart camera-control environment (§III-D's motivating application).

use simclock::SeededRng;

use crate::env::Environment;

/// A pan-tilt-zoom camera watching a scene grid while an incident (e.g. a
/// fleeing vehicle) moves through it.
///
/// **State** (6 floats, normalized to `[0, 1]` or `{0, ½, 1}`): camera x,
/// camera y, zoom level, incident x, incident y, and whether the incident is
/// currently in view.
///
/// **Actions** (7): pan left / right / up / down, zoom in, zoom out, hold.
///
/// **Reward**: `+1` per step the incident is inside the field of view,
/// multiplied by `(1 + zoom)` — a zoomed-in capture is worth more (better
/// evidence quality), but the view is smaller and easier to lose. `-0.05`
/// step cost otherwise.
#[derive(Debug)]
pub struct CameraControlEnv {
    width: i32,
    height: i32,
    episode_len: usize,
    rng: SeededRng,
    cam: (i32, i32),
    zoom: i32, // 0 (wide), 1, 2 (tight)
    incident: (i32, i32),
    incident_vel: (i32, i32),
    step: usize,
}

impl CameraControlEnv {
    /// Creates an environment on a `width`×`height` scene with episodes of
    /// `episode_len` steps.
    ///
    /// # Panics
    ///
    /// Panics if dimensions are < 4 or the episode is empty.
    pub fn new(width: i32, height: i32, episode_len: usize, seed: u64) -> Self {
        assert!(width >= 4 && height >= 4, "scene must be at least 4x4");
        assert!(episode_len > 0, "episodes need at least one step");
        CameraControlEnv {
            width,
            height,
            episode_len,
            rng: SeededRng::new(seed),
            cam: (0, 0),
            zoom: 0,
            incident: (0, 0),
            incident_vel: (1, 0),
            step: 0,
        }
    }

    /// Half-width of the field of view at the current zoom.
    fn view_radius(&self) -> i32 {
        match self.zoom {
            0 => 3,
            1 => 2,
            _ => 1,
        }
    }

    /// Whether the incident is inside the current field of view.
    fn incident_in_view(&self) -> bool {
        let r = self.view_radius();
        (self.cam.0 - self.incident.0).abs() <= r && (self.cam.1 - self.incident.1).abs() <= r
    }

    fn state(&self) -> Vec<f32> {
        vec![
            self.cam.0 as f32 / self.width as f32,
            self.cam.1 as f32 / self.height as f32,
            self.zoom as f32 / 2.0,
            self.incident.0 as f32 / self.width as f32,
            self.incident.1 as f32 / self.height as f32,
            f32::from(self.incident_in_view()),
        ]
    }
}

impl Environment for CameraControlEnv {
    fn state_dim(&self) -> usize {
        6
    }

    fn num_actions(&self) -> usize {
        7
    }

    fn reset(&mut self) -> Vec<f32> {
        self.cam = (self.width / 2, self.height / 2);
        self.zoom = 0;
        self.incident = (
            self.rng.index(self.width as usize) as i32,
            self.rng.index(self.height as usize) as i32,
        );
        self.incident_vel = (
            *self.rng.choose(&[-1i32, 0, 1]).expect("non-empty"),
            *self.rng.choose(&[-1i32, 0, 1]).expect("non-empty"),
        );
        self.step = 0;
        self.state()
    }

    fn step(&mut self, action: usize) -> (Vec<f32>, f64, bool) {
        assert!(action < 7, "action {action} out of range");
        match action {
            0 => self.cam.0 = (self.cam.0 - 1).max(0),
            1 => self.cam.0 = (self.cam.0 + 1).min(self.width - 1),
            2 => self.cam.1 = (self.cam.1 - 1).max(0),
            3 => self.cam.1 = (self.cam.1 + 1).min(self.height - 1),
            4 => self.zoom = (self.zoom + 1).min(2),
            5 => self.zoom = (self.zoom - 1).max(0),
            _ => {}
        }

        // Incident drifts; occasionally changes direction.
        if self.rng.chance(0.15) {
            self.incident_vel = (
                *self.rng.choose(&[-1i32, 0, 1]).expect("non-empty"),
                *self.rng.choose(&[-1i32, 0, 1]).expect("non-empty"),
            );
        }
        self.incident.0 = (self.incident.0 + self.incident_vel.0).clamp(0, self.width - 1);
        self.incident.1 = (self.incident.1 + self.incident_vel.1).clamp(0, self.height - 1);

        let reward = if self.incident_in_view() {
            1.0 * (1.0 + self.zoom as f64)
        } else {
            -0.05
        };
        self.step += 1;
        (self.state(), reward, self.step >= self.episode_len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reset_returns_valid_state() {
        let mut env = CameraControlEnv::new(10, 10, 20, 1);
        let s = env.reset();
        assert_eq!(s.len(), env.state_dim());
        assert!(s.iter().all(|v| (0.0..=1.0).contains(v)));
    }

    #[test]
    fn episode_length_respected() {
        let mut env = CameraControlEnv::new(10, 10, 15, 2);
        env.reset();
        let mut steps = 0;
        loop {
            let (_, _, done) = env.step(6);
            steps += 1;
            if done {
                break;
            }
        }
        assert_eq!(steps, 15);
    }

    #[test]
    fn camera_stays_in_bounds() {
        let mut env = CameraControlEnv::new(6, 6, 100, 3);
        env.reset();
        for _ in 0..50 {
            env.step(0); // pan left repeatedly
        }
        assert_eq!(env.cam.0, 0);
        env.reset();
        for _ in 0..50 {
            env.step(1);
        }
        assert_eq!(env.cam.0, 5);
    }

    #[test]
    fn zoom_bounds() {
        let mut env = CameraControlEnv::new(8, 8, 100, 4);
        env.reset();
        for _ in 0..5 {
            env.step(4);
        }
        assert_eq!(env.zoom, 2);
        for _ in 0..5 {
            env.step(5);
        }
        assert_eq!(env.zoom, 0);
    }

    #[test]
    fn zoomed_reward_is_higher_in_view() {
        let mut env = CameraControlEnv::new(8, 8, 100, 5);
        env.reset();
        // Force a deterministic co-located situation.
        env.incident = env.cam;
        env.incident_vel = (0, 0);
        env.zoom = 2;
        // Repeat until a no-direction-change step (rng may jitter velocity
        // but position is clamped near camera; radius 1 view).
        let (_, r_zoomed, _) = env.step(6);
        assert!(r_zoomed >= -0.05);
        if env.incident_in_view() {
            assert!(r_zoomed >= 1.0);
        }
    }

    #[test]
    fn wide_view_sees_more() {
        let mut env = CameraControlEnv::new(10, 10, 10, 6);
        env.reset();
        env.cam = (5, 5);
        env.incident = (7, 5); // distance 2
        env.zoom = 0;
        assert!(env.incident_in_view(), "radius 3 covers distance 2");
        env.zoom = 2;
        assert!(!env.incident_in_view(), "radius 1 does not");
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_action_panics() {
        let mut env = CameraControlEnv::new(8, 8, 10, 7);
        env.reset();
        env.step(7);
    }
}
