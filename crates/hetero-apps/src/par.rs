//! Real data-parallel execution helpers for the host kernels.
//!
//! The native validation path of `hetero-runtime` runs task instances
//! sequentially (so it is trivially race-free); the *kernels themselves*
//! still deserve real parallelism — both to exercise actual HPC code paths
//! and to keep large native test sizes fast. [`par_chunks_mut`] splits an
//! output slice over crossbeam scoped threads; each closure receives a
//! disjoint chunk, so no synchronisation is needed.

/// Split a mutable f32 slice into `parts` disjoint chunks of `width` items
/// each and apply `body(part_index, chunk)` in parallel. Useful when the
/// output regions are contiguous and disjoint.
pub fn par_chunks_mut<F>(data: &mut [f32], width: usize, body: F)
where
    F: Fn(usize, &mut [f32]) + Sync,
{
    assert!(width > 0);
    crossbeam::scope(|scope| {
        let body = &body;
        for (i, chunk) in data.chunks_mut(width).enumerate() {
            scope.spawn(move |_| body(i, chunk));
        }
    })
    .expect("worker panicked");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn par_chunks_mut_writes_disjoint() {
        let mut v = vec![0.0f32; 100];
        par_chunks_mut(&mut v, 7, |i, chunk| {
            for x in chunk {
                *x = i as f32;
            }
        });
        for (i, &x) in v.iter().enumerate() {
            assert_eq!(x, (i / 7) as f32);
        }
    }
}
