//! Disk access trace representation.
//!
//! The disk cache operates on 2KB pages (§2.2: "managing the contents of
//! a disk at the granularity of pages"), so traces address disk in units
//! of 2KB *disk pages*. A request covers one or more consecutive pages.

use std::fmt;

/// Bytes per disk/cache page.
pub const PAGE_BYTES: u64 = 2048;

/// Request direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpKind {
    /// A read of disk contents.
    Read,
    /// A write (eventually) destined for disk.
    Write,
}

impl fmt::Display for OpKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OpKind::Read => write!(f, "R"),
            OpKind::Write => write!(f, "W"),
        }
    }
}

/// One disk access.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DiskRequest {
    /// First disk page touched.
    pub page: u64,
    /// Number of consecutive pages touched (≥ 1).
    pub len: u32,
    /// Direction.
    pub op: OpKind,
}

impl DiskRequest {
    /// Creates a request.
    ///
    /// # Panics
    ///
    /// Panics if `len == 0`.
    pub fn new(page: u64, len: u32, op: OpKind) -> Self {
        assert!(len > 0, "request length must be at least one page");
        DiskRequest { page, len, op }
    }

    /// A single-page read.
    pub fn read(page: u64) -> Self {
        DiskRequest::new(page, 1, OpKind::Read)
    }

    /// A single-page write.
    pub fn write(page: u64) -> Self {
        DiskRequest::new(page, 1, OpKind::Write)
    }

    /// Iterator over the individual pages this request touches.
    pub fn pages(&self) -> impl Iterator<Item = u64> {
        self.page..self.page + self.len as u64
    }

    /// Total bytes moved.
    pub fn bytes(&self) -> u64 {
        self.len as u64 * PAGE_BYTES
    }

    /// `true` for writes.
    pub fn is_write(&self) -> bool {
        self.op == OpKind::Write
    }
}

impl fmt::Display for DiskRequest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} page {} +{}", self.op, self.page, self.len)
    }
}

/// Summary statistics over a stream of requests.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TraceStats {
    /// Total requests observed.
    pub requests: u64,
    /// Total pages touched (sum of lengths).
    pub pages: u64,
    /// Write requests.
    pub writes: u64,
    /// Pages touched by writes.
    pub write_pages: u64,
    /// Highest page number seen.
    pub max_page: u64,
}

impl TraceStats {
    /// Folds one request into the statistics.
    pub fn record(&mut self, req: &DiskRequest) {
        self.requests += 1;
        self.pages += req.len as u64;
        if req.is_write() {
            self.writes += 1;
            self.write_pages += req.len as u64;
        }
        self.max_page = self.max_page.max(req.page + req.len as u64 - 1);
    }

    /// Fraction of requests that are writes.
    pub fn write_fraction(&self) -> f64 {
        if self.requests == 0 {
            0.0
        } else {
            self.writes as f64 / self.requests as f64
        }
    }
}

impl FromIterator<DiskRequest> for TraceStats {
    fn from_iter<I: IntoIterator<Item = DiskRequest>>(iter: I) -> Self {
        let mut s = TraceStats::default();
        for r in iter {
            s.record(&r);
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_basics() {
        let r = DiskRequest::new(10, 3, OpKind::Read);
        assert_eq!(r.pages().collect::<Vec<_>>(), vec![10, 11, 12]);
        assert_eq!(r.bytes(), 3 * 2048);
        assert!(!r.is_write());
        assert!(DiskRequest::write(5).is_write());
        assert_eq!(r.to_string(), "R page 10 +3");
    }

    #[test]
    #[should_panic(expected = "at least one page")]
    fn zero_length_rejected() {
        DiskRequest::new(0, 0, OpKind::Read);
    }

    #[test]
    fn stats_accumulate() {
        let reqs = vec![
            DiskRequest::read(0),
            DiskRequest::new(100, 4, OpKind::Write),
            DiskRequest::read(50),
        ];
        let s: TraceStats = reqs.into_iter().collect();
        assert_eq!(s.requests, 3);
        assert_eq!(s.pages, 6);
        assert_eq!(s.writes, 1);
        assert_eq!(s.write_pages, 4);
        assert_eq!(s.max_page, 103);
        assert!((s.write_fraction() - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn empty_stats_write_fraction_is_zero() {
        assert_eq!(TraceStats::default().write_fraction(), 0.0);
    }
}
