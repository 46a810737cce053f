//! Offline shim for the subset of the `rayon` API used by this
//! workspace: `slice.par_iter().map(f).collect::<Vec<_>>()`,
//! `slice.par_iter().map_init(init, f).collect::<Vec<_>>()`,
//! `collection.into_par_iter().map(f).collect::<Vec<_>>()`, and
//! `slice.par_iter_mut().for_each(f)`.
//!
//! The build container has no registry access, so this crate provides
//! a genuinely parallel implementation on `std::thread::scope`: the
//! input is chunked across `available_parallelism()` workers, each
//! worker maps its chunk, and results are concatenated in input order
//! (the same ordering guarantee rayon's indexed collect gives).
//!
//! **One level of parallelism.** A call made from inside one of the
//! shim's own workers runs inline, serially, on that worker: it sees a
//! worker count of 1. Only a call from a non-worker thread (the main
//! thread, a test thread) fans out. This is the no-oversubscription
//! behaviour real rayon gives nested iterators, and it is what keeps an
//! ensemble's jobs from spawning threads on every engine tick: the
//! ensemble fans its jobs out over the cores, and each job's per-tick
//! partition scan runs on the worker that owns the job. A lone run
//! called from a non-worker thread, or a one-item outer call (which
//! runs on the caller without spawning), still gets a parallel scan.

use std::cell::Cell;
use std::num::NonZeroUsize;

thread_local! {
    /// Set on every thread the shim spawns; never cleared, since a
    /// worker thread ends with its chunk.
    static IN_WORKER: Cell<bool> = const { Cell::new(false) };
}

fn worker_count(items: usize) -> usize {
    if items <= 1 || IN_WORKER.with(Cell::get) {
        return 1;
    }
    std::thread::available_parallelism().map(NonZeroUsize::get).unwrap_or(1).min(items)
}

/// Run `work` on every chunk, one scoped worker thread per chunk, and
/// return the per-chunk results in chunk order.
fn fan_out<C: Send, R: Send>(
    chunks: impl Iterator<Item = C>,
    work: impl Fn(C) -> R + Sync,
) -> Vec<R> {
    let work = &work;
    std::thread::scope(|s| {
        let handles: Vec<_> = chunks
            .map(|c| {
                s.spawn(move || {
                    IN_WORKER.with(|w| w.set(true));
                    work(c)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("rayon-shim worker panicked")).collect()
    })
}

/// Borrowed parallel iterator over a slice.
pub struct ParSlice<'a, T> {
    slice: &'a [T],
}

/// `par_iter().map(f)` — the only adapter the workspace uses.
pub struct ParSliceMap<'a, T, F> {
    slice: &'a [T],
    f: F,
}

/// `par_iter().map_init(init, f)` — per-worker reusable state.
pub struct ParSliceMapInit<'a, T, I, F> {
    slice: &'a [T],
    init: I,
    f: F,
}

impl<'a, T: Sync> ParSlice<'a, T> {
    pub fn map<R, F>(self, f: F) -> ParSliceMap<'a, T, F>
    where
        F: Fn(&'a T) -> R + Sync,
        R: Send,
    {
        ParSliceMap { slice: self.slice, f }
    }

    /// Like rayon's `map_init`: each worker calls `init` once and
    /// threads the resulting state through every element it processes
    /// (scratch-buffer pooling across items, not just within one).
    pub fn map_init<S, R, I, F>(self, init: I, f: F) -> ParSliceMapInit<'a, T, I, F>
    where
        I: Fn() -> S + Sync,
        F: Fn(&mut S, &'a T) -> R + Sync,
        R: Send,
    {
        ParSliceMapInit { slice: self.slice, init, f }
    }
}

impl<'a, T: Sync, I, F> ParSliceMapInit<'a, T, I, F> {
    pub fn collect<C, S, R>(self) -> C
    where
        I: Fn() -> S + Sync,
        F: Fn(&mut S, &'a T) -> R + Sync,
        R: Send,
        C: FromIterator<R>,
    {
        let n = self.slice.len();
        let workers = worker_count(n);
        if workers <= 1 {
            let mut state = (self.init)();
            return self.slice.iter().map(|x| (self.f)(&mut state, x)).collect();
        }
        let (init, f) = (&self.init, &self.f);
        fan_out(self.slice.chunks(n.div_ceil(workers)), |c| {
            let mut state = init();
            c.iter().map(|x| f(&mut state, x)).collect::<Vec<R>>()
        })
        .into_iter()
        .flatten()
        .collect()
    }
}

impl<'a, T: Sync, F> ParSliceMap<'a, T, F> {
    pub fn collect<C, R>(self) -> C
    where
        F: Fn(&'a T) -> R + Sync,
        R: Send,
        C: FromIterator<R>,
    {
        let n = self.slice.len();
        let workers = worker_count(n);
        if workers <= 1 {
            return self.slice.iter().map(&self.f).collect();
        }
        let f = &self.f;
        fan_out(self.slice.chunks(n.div_ceil(workers)), |c| c.iter().map(f).collect::<Vec<R>>())
            .into_iter()
            .flatten()
            .collect()
    }
}

/// Owned parallel iterator (ranges, vectors).
pub struct ParItems<T> {
    items: Vec<T>,
}

pub struct ParItemsMap<T, F> {
    items: Vec<T>,
    f: F,
}

impl<T: Send> ParItems<T> {
    pub fn map<R, F>(self, f: F) -> ParItemsMap<T, F>
    where
        F: Fn(T) -> R + Sync,
        R: Send,
    {
        ParItemsMap { items: self.items, f }
    }
}

impl<T: Send, F> ParItemsMap<T, F> {
    pub fn collect<C, R>(self) -> C
    where
        F: Fn(T) -> R + Sync,
        R: Send,
        C: FromIterator<R>,
    {
        let n = self.items.len();
        let workers = worker_count(n);
        if workers <= 1 {
            return self.items.into_iter().map(&self.f).collect();
        }
        let chunk = n.div_ceil(workers);
        let f = &self.f;
        let mut chunks: Vec<Vec<T>> = Vec::with_capacity(workers);
        let mut rest = self.items;
        while rest.len() > chunk {
            let tail = rest.split_off(chunk);
            chunks.push(std::mem::replace(&mut rest, tail));
        }
        chunks.push(rest);
        fan_out(chunks.into_iter(), |c| c.into_iter().map(f).collect::<Vec<R>>())
            .into_iter()
            .flatten()
            .collect()
    }
}

/// Exclusive parallel iterator over a mutable slice (`par_iter_mut`).
///
/// Used by the epihiper engine to let each worker fill its own
/// partition workspace (events, Gillespie scratch) in place, so the
/// per-tick scan reuses allocations instead of collecting fresh
/// vectors.
pub struct ParSliceMut<'a, T> {
    slice: &'a mut [T],
}

impl<'a, T: Send> ParSliceMut<'a, T> {
    /// Apply `f` to every element, in parallel, like rayon's
    /// `IndexedParallelIterator::for_each`.
    pub fn for_each<F>(self, f: F)
    where
        F: Fn(&mut T) + Sync,
    {
        let n = self.slice.len();
        let workers = worker_count(n);
        if workers <= 1 {
            for x in self.slice.iter_mut() {
                f(x);
            }
            return;
        }
        fan_out(self.slice.chunks_mut(n.div_ceil(workers)), |c| c.iter_mut().for_each(&f));
    }
}

/// `.par_iter_mut()` on borrowed collections.
pub trait IntoParallelRefMutIterator<'a> {
    type Item: 'a;
    fn par_iter_mut(&'a mut self) -> ParSliceMut<'a, Self::Item>;
}

impl<'a, T: Send + 'a> IntoParallelRefMutIterator<'a> for [T] {
    type Item = T;
    fn par_iter_mut(&'a mut self) -> ParSliceMut<'a, T> {
        ParSliceMut { slice: self }
    }
}

impl<'a, T: Send + 'a> IntoParallelRefMutIterator<'a> for Vec<T> {
    type Item = T;
    fn par_iter_mut(&'a mut self) -> ParSliceMut<'a, T> {
        ParSliceMut { slice: self }
    }
}

/// `.par_iter()` on borrowed collections.
pub trait IntoParallelRefIterator<'a> {
    type Item: 'a;
    fn par_iter(&'a self) -> ParSlice<'a, Self::Item>;
}

impl<'a, T: Sync + 'a> IntoParallelRefIterator<'a> for [T] {
    type Item = T;
    fn par_iter(&'a self) -> ParSlice<'a, T> {
        ParSlice { slice: self }
    }
}

impl<'a, T: Sync + 'a> IntoParallelRefIterator<'a> for Vec<T> {
    type Item = T;
    fn par_iter(&'a self) -> ParSlice<'a, T> {
        ParSlice { slice: self }
    }
}

/// `.into_par_iter()` on owned collections and ranges.
pub trait IntoParallelIterator {
    type Item: Send;
    fn into_par_iter(self) -> ParItems<Self::Item>;
}

impl<T: Send> IntoParallelIterator for Vec<T> {
    type Item = T;
    fn into_par_iter(self) -> ParItems<T> {
        ParItems { items: self }
    }
}

macro_rules! impl_into_par_range {
    ($($t:ty),*) => {$(
        impl IntoParallelIterator for core::ops::Range<$t> {
            type Item = $t;
            fn into_par_iter(self) -> ParItems<$t> {
                ParItems { items: self.collect() }
            }
        }
    )*};
}

impl_into_par_range!(u32, u64, usize, i32, i64);

pub mod prelude {
    pub use crate::{IntoParallelIterator, IntoParallelRefIterator, IntoParallelRefMutIterator};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn par_iter_preserves_order() {
        let xs: Vec<u64> = (0..10_000).collect();
        let doubled: Vec<u64> = xs.par_iter().map(|x| x * 2).collect();
        assert_eq!(doubled.len(), xs.len());
        for (i, d) in doubled.iter().enumerate() {
            assert_eq!(*d, 2 * i as u64);
        }
    }

    #[test]
    fn into_par_iter_on_range() {
        let squares: Vec<usize> = (0..1000usize).into_par_iter().map(|x| x * x).collect();
        assert_eq!(squares[31], 961);
        assert_eq!(squares.len(), 1000);
    }

    #[test]
    fn par_iter_mut_touches_every_element_once() {
        let mut xs: Vec<u64> = (0..10_000).collect();
        xs.par_iter_mut().for_each(|x| *x += 1);
        for (i, x) in xs.iter().enumerate() {
            assert_eq!(*x, i as u64 + 1);
        }
        let mut empty: Vec<u64> = Vec::new();
        empty.par_iter_mut().for_each(|x| *x += 1);
        assert!(empty.is_empty());
    }

    #[test]
    fn map_init_preserves_order_and_reuses_state() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let inits = AtomicUsize::new(0);
        let xs: Vec<u64> = (0..10_000).collect();
        let out: Vec<u64> = xs
            .par_iter()
            .map_init(
                || {
                    inits.fetch_add(1, Ordering::Relaxed);
                    Vec::<u64>::new()
                },
                |buf, &x| {
                    buf.push(x);
                    x * 3
                },
            )
            .collect();
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, 3 * i as u64);
        }
        // One init per worker, not per item.
        assert!(inits.load(Ordering::Relaxed) <= super::worker_count(xs.len()));
    }

    #[test]
    fn empty_and_single() {
        let none: Vec<u32> = Vec::<u32>::new().par_iter().map(|x| *x).collect();
        assert!(none.is_empty());
        let one: Vec<u32> = vec![7u32].into_par_iter().map(|x| x + 1).collect();
        assert_eq!(one, vec![8]);
    }

    use std::thread::ThreadId;

    #[derive(Clone, Copy, Debug)]
    enum Adapter {
        Map,
        MapInit,
        IntoMap,
        ForEach,
    }

    const ADAPTERS: [Adapter; 4] =
        [Adapter::Map, Adapter::MapInit, Adapter::IntoMap, Adapter::ForEach];

    fn tid() -> ThreadId {
        std::thread::current().id()
    }

    fn cores() -> usize {
        std::thread::available_parallelism().map(std::num::NonZeroUsize::get).unwrap_or(1)
    }

    /// `f(i)` for every `i` in `0..n` through one adapter, in output
    /// order, each next to the id of the thread that computed it.
    fn via<T: Send>(
        adapter: Adapter,
        n: usize,
        f: impl Fn(usize) -> T + Sync,
    ) -> Vec<(T, ThreadId)> {
        let xs: Vec<usize> = (0..n).collect();
        match adapter {
            Adapter::Map => xs.par_iter().map(|&i| (f(i), tid())).collect(),
            Adapter::MapInit => xs.par_iter().map_init(|| (), |_, &i| (f(i), tid())).collect(),
            Adapter::IntoMap => xs.into_par_iter().map(|i| (f(i), tid())).collect(),
            Adapter::ForEach => {
                let mut slots: Vec<(usize, Option<(T, ThreadId)>)> =
                    xs.into_iter().map(|i| (i, None)).collect();
                slots.par_iter_mut().for_each(|(i, out)| *out = Some((f(*i), tid())));
                slots.into_iter().map(|(_, out)| out.expect("every item visited")).collect()
            }
        }
    }

    fn distinct(ids: impl Iterator<Item = ThreadId>) -> usize {
        ids.collect::<std::collections::HashSet<_>>().len()
    }

    /// A nested region: `via(outer, 4, ..)` whose every item makes a
    /// 64-item `via(inner, ..)` call. Checks each nested call ran on
    /// the thread of the outer item that made it, in input order.
    fn nested_region(outer: Adapter, inner: Adapter) {
        let here = tid();
        let runs = via(outer, 4, |i| via(inner, 64, move |j| (i, j)));
        assert_eq!(runs.len(), 4);
        for (i, (nested, owner)) in runs.iter().enumerate() {
            if cores() >= 2 {
                assert_ne!(*owner, here, "{outer:?}: outer item {i} did not run on a worker");
            }
            let items: Vec<(usize, usize)> = nested.iter().map(|(x, _)| *x).collect();
            assert_eq!(items, (0..64).map(|j| (i, j)).collect::<Vec<_>>(), "{inner:?} order");
            assert!(
                nested.iter().all(|(_, t)| t == owner),
                "{inner:?} inside {outer:?} left the worker thread"
            );
        }
    }

    #[test]
    fn call_inside_a_worker_runs_inline_on_that_worker() {
        for outer in ADAPTERS {
            for inner in ADAPTERS {
                nested_region(outer, inner);
            }
        }
    }

    #[test]
    fn one_item_outer_call_lets_its_nested_call_fan_out() {
        let here = tid();
        for outer in ADAPTERS {
            for inner in ADAPTERS {
                let runs = via(outer, 1, |_| via(inner, 64, |j| j));
                let (nested, owner) = &runs[0];
                assert_eq!(*owner, here, "{outer:?}: a 1-item call runs on the caller");
                let items: Vec<usize> = nested.iter().map(|(x, _)| *x).collect();
                assert_eq!(items, (0..64).collect::<Vec<_>>(), "{inner:?} order");
                if cores() >= 2 {
                    assert!(
                        distinct(nested.iter().map(|(_, t)| *t)) > 1,
                        "{inner:?} inside a 1-item {outer:?} did not fan out"
                    );
                }
            }
        }
    }

    #[test]
    fn top_level_call_fans_out_after_a_nested_region() {
        for a in ADAPTERS {
            nested_region(a, a);
            let runs = via(a, 64, |j| j);
            assert_eq!(
                runs.iter().map(|(x, _)| *x).collect::<Vec<_>>(),
                (0..64).collect::<Vec<_>>()
            );
            if cores() >= 2 {
                assert!(distinct(runs.iter().map(|(_, t)| *t)) > 1, "{a:?} stayed serial");
            }
        }
    }
}
