//! The traced run's instruments: spans recorded around the benchmark's own
//! calls into each layer, and a counting global allocator.
//!
//! Both are switched per thread and cost one branch when off, so the
//! untraced windows of a traced run (and every untraced run) pay nothing
//! else. Spans live in a vector allocated before timing starts; when it is
//! full, further spans are counted as dropped instead of growing it.

use crate::json::Json;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::time::Instant;

/// One closed span. `parent` is `u32::MAX` for a root span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub id: u32,
    pub parent: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Per-thread span recorder.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    tid: u32,
    spans: Vec<Span>,
    /// Indices into `spans` of the spans still open, innermost last.
    open: Vec<usize>,
    next_id: u32,
    pub dropped: u64,
}

pub const NO_PARENT: u32 = u32::MAX;

/// Marks an open span that was not recorded because the buffer was full.
const DROPPED: usize = usize::MAX;

impl Tracer {
    /// A recorder holding up to `capacity` spans, allocated now. With
    /// `capacity == 0` it never records.
    pub fn new(epoch: Instant, tid: u32, capacity: usize) -> Tracer {
        Tracer {
            on: false,
            epoch,
            tid,
            spans: Vec::with_capacity(capacity),
            open: Vec::with_capacity(16),
            next_id: (tid << 24) + 1,
            dropped: 0,
        }
    }

    pub fn set_on(&mut self, on: bool) {
        self.on = on && self.spans.capacity() > 0;
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span named `name` under the innermost open span.
    #[inline]
    pub fn open(&mut self, name: &'static str) {
        if !self.on {
            return;
        }
        if self.spans.len() == self.spans.capacity() {
            // Keep open/close paired: the matching close pops this marker.
            self.dropped += 1;
            self.open.push(DROPPED);
            return;
        }
        // The buffer only fills up, so an open span below a recorded one
        // was recorded too.
        let parent = self.open.last().map_or(NO_PARENT, |&i| self.spans[i].id);
        let now = self.now_ns();
        self.open.push(self.spans.len());
        self.spans.push(Span {
            id: self.next_id,
            parent,
            name,
            start_ns: now,
            end_ns: now,
        });
        self.next_id += 1;
    }

    /// Closes the innermost span opened by [`Tracer::open`]. Must pair
    /// with an `open` made while the tracer was in the same state.
    #[inline]
    pub fn close(&mut self) {
        if !self.on {
            return;
        }
        match self.open.pop() {
            Some(DROPPED) | None => {}
            Some(i) => self.spans[i].end_ns = self.now_ns(),
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes every recorded span as a Chrome trace-event record
    /// (`"ph": "X"`), each preceded by a comma unless `*first`.
    pub fn write_events(
        &self,
        w: &mut impl std::io::Write,
        first: &mut bool,
    ) -> std::io::Result<()> {
        for s in &self.spans {
            let mut e = Json::obj();
            e.set("name", s.name);
            e.set("ph", "X");
            e.set("pid", 1u64);
            e.set("tid", u64::from(self.tid));
            e.set("ts", s.start_ns as f64 / 1e3);
            e.set("dur", s.dur_ns() as f64 / 1e3);
            let mut args = Json::obj();
            args.set("id", u64::from(s.id));
            if s.parent != NO_PARENT {
                args.set("parent", u64::from(s.parent));
            }
            e.set("args", args);
            if !std::mem::take(first) {
                w.write_all(b",\n")?;
            }
            write!(w, "{e}")?;
        }
        Ok(())
    }
}

/// Self time per span name: each span's duration minus the part of it
/// its direct children cover, summed by name, with the span count.
pub fn self_times<'a>(
    spans: impl Iterator<Item = &'a Span> + Clone,
) -> Vec<(&'static str, u64, u64)> {
    let mut child_ns: std::collections::HashMap<u32, u64> = std::collections::HashMap::new();
    for s in spans.clone() {
        if s.parent != NO_PARENT {
            *child_ns.entry(s.parent).or_default() += s.dur_ns();
        }
    }
    let mut by_name: Vec<(&'static str, u64, u64)> = Vec::new();
    for s in spans {
        let own = s
            .dur_ns()
            .saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0));
        match by_name.iter_mut().find(|(n, _, _)| *n == s.name) {
            Some(entry) => {
                entry.1 += own;
                entry.2 += 1;
            }
            None => by_name.push((s.name, own, 1)),
        }
    }
    by_name.sort_by(|a, b| a.0.cmp(b.0));
    by_name
}

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static ALLOC_BYTES: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator, counting allocations on threads that asked for
/// it with [`count_allocations`].
pub struct CountingAlloc;

// SAFETY: every call is forwarded unchanged to `System`; the counters are
// const-initialised thread-locals of `Copy` type, whose access neither
// allocates nor re-enters the allocator.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller meets the requirements of `GlobalAlloc::alloc`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller meets the requirements of `GlobalAlloc::dealloc`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller meets the requirements of `GlobalAlloc::alloc_zeroed`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: the caller meets the requirements of `GlobalAlloc::realloc`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[inline]
fn note(bytes: usize) {
    // `try_with` fails only while the thread is being torn down.
    let _ = COUNTING.try_with(|on| {
        if on.get() {
            ALLOCS.with(|c| c.set(c.get() + 1));
            ALLOC_BYTES.with(|c| c.set(c.get() + bytes as u64));
        }
    });
}

/// Starts or stops counting this thread's allocations.
pub fn count_allocations(on: bool) {
    COUNTING.with(|c| c.set(on));
}

/// This thread's counted `(allocations, bytes)` so far.
pub fn allocations() -> (u64, u64) {
    (ALLOCS.with(Cell::get), ALLOC_BYTES.with(Cell::get))
}
