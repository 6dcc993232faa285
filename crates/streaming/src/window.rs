//! The sliding window: a fixed-capacity ring buffer over the last
//! `window` pushed points, which the window stage materializes once per
//! push for every later stage to read.

/// Fixed-capacity ring buffer over the last `capacity` pushed points.
#[derive(Debug, Clone)]
pub struct SlidingWindow {
    buf: Vec<f64>,
    head: usize,
    len: usize,
}

impl SlidingWindow {
    /// An empty window holding at most `capacity` points.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero (a zero-length window has no meaning;
    /// stream construction validates this before building stages).
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "window capacity must be positive");
        SlidingWindow {
            buf: vec![0.0; capacity],
            head: 0,
            len: 0,
        }
    }

    /// Appends `x`, returning the evicted oldest point once full.
    pub fn push(&mut self, x: f64) -> Option<f64> {
        if self.len < self.buf.len() {
            let tail = (self.head + self.len) % self.buf.len();
            self.buf[tail] = x;
            self.len += 1;
            None
        } else {
            let evicted = self.buf[self.head];
            self.buf[self.head] = x;
            self.head = (self.head + 1) % self.buf.len();
            Some(evicted)
        }
    }

    /// Points currently held.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` before the first push.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// `true` once `capacity` points have been pushed.
    pub fn is_full(&self) -> bool {
        self.len == self.buf.len()
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.buf.len()
    }

    /// Copies the window contents, oldest first, into `out`.
    pub fn copy_into(&self, out: &mut Vec<f64>) {
        out.clear();
        out.reserve(self.len);
        let first = (self.buf.len() - self.head).min(self.len);
        out.extend_from_slice(&self.buf[self.head..self.head + first]);
        out.extend_from_slice(&self.buf[..self.len - first]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn window_fills_then_slides() {
        let mut w = SlidingWindow::new(3);
        assert_eq!(w.push(1.0), None);
        assert_eq!(w.push(2.0), None);
        assert!(!w.is_full());
        assert_eq!(w.push(3.0), None);
        assert!(w.is_full());
        assert_eq!(w.push(4.0), Some(1.0));
        assert_eq!(w.push(5.0), Some(2.0));
        let mut out = Vec::new();
        w.copy_into(&mut out);
        assert_eq!(out, vec![3.0, 4.0, 5.0]);
    }

    #[test]
    fn copy_into_handles_every_rotation() {
        for cap in 1..=8usize {
            let mut w = SlidingWindow::new(cap);
            let mut expect = Vec::new();
            for i in 0..(3 * cap) {
                let x = i as f64 * 0.75 - 2.0;
                w.push(x);
                expect.push(x);
                if expect.len() > cap {
                    expect.remove(0);
                }
                let mut got = Vec::new();
                w.copy_into(&mut got);
                assert_eq!(got, expect, "cap={cap} i={i}");
            }
        }
    }
}
