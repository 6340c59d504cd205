//! Shape and index arithmetic for dense row-major tensors.

/// Row-major strides for a shape (last axis fastest).
pub(crate) fn strides_for(shape: &[usize]) -> Vec<usize> {
    let mut strides = vec![0usize; shape.len()];
    let mut acc = 1usize;
    for (stride, &dim) in strides.iter_mut().zip(shape.iter()).rev() {
        *stride = acc;
        acc *= dim;
    }
    strides
}

/// Total number of elements of a shape.
pub(crate) fn num_elements(shape: &[usize]) -> usize {
    shape.iter().product()
}

/// Convert a multi-index to a flat row-major offset.
#[inline]
pub(crate) fn ravel(index: &[usize], strides: &[usize]) -> usize {
    debug_assert_eq!(index.len(), strides.len());
    index.iter().zip(strides.iter()).map(|(i, s)| i * s).sum()
}

/// Convert a flat row-major offset back to a multi-index.
#[cfg(test)]
pub(crate) fn unravel(mut offset: usize, shape: &[usize]) -> Vec<usize> {
    let mut index = vec![0usize; shape.len()];
    for i in (0..shape.len()).rev() {
        let dim = shape[i];
        index[i] = offset % dim;
        offset /= dim;
    }
    index
}

/// In-place increment of a multi-index in row-major (odometer) order.
/// Returns `false` when the index wraps past the end.
pub(crate) fn increment_index(index: &mut [usize], shape: &[usize]) -> bool {
    for i in (0..shape.len()).rev() {
        index[i] += 1;
        if index[i] < shape[i] {
            return true;
        }
        index[i] = 0;
    }
    false
}

/// True if `perm` maps every axis to itself.
pub(crate) fn is_identity_perm(perm: &[usize]) -> bool {
    perm.iter().enumerate().all(|(i, &p)| i == p)
}

/// Check that a permutation is valid (each axis appears exactly once).
pub(crate) fn is_permutation(perm: &[usize]) -> bool {
    let n = perm.len();
    let mut seen = vec![false; n];
    for &p in perm {
        if p >= n || seen[p] {
            return false;
        }
        seen[p] = true;
    }
    true
}

/// Apply a permutation to a shape: `out[i] = shape[perm[i]]`.
pub(crate) fn permute_shape(shape: &[usize], perm: &[usize]) -> Vec<usize> {
    perm.iter().map(|&p| shape[p]).collect()
}

/// Inverse of a permutation.
#[cfg(test)]
pub(crate) fn invert_permutation(perm: &[usize]) -> Vec<usize> {
    let mut inv = vec![0usize; perm.len()];
    for (i, &p) in perm.iter().enumerate() {
        inv[p] = i;
    }
    inv
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strides_row_major() {
        assert_eq!(strides_for(&[2, 3, 4]), vec![12, 4, 1]);
        assert_eq!(strides_for(&[5]), vec![1]);
        assert_eq!(strides_for(&[]), Vec::<usize>::new());
    }

    #[test]
    fn ravel_unravel_roundtrip() {
        let shape = [2, 3, 4];
        let strides = strides_for(&shape);
        for offset in 0..num_elements(&shape) {
            let idx = unravel(offset, &shape);
            assert_eq!(ravel(&idx, &strides), offset);
        }
    }

    #[test]
    fn odometer_visits_every_index_in_order() {
        let shape = [2, 3];
        let mut idx = vec![0, 0];
        let mut visited = vec![idx.clone()];
        while increment_index(&mut idx, &shape) {
            visited.push(idx.clone());
        }
        assert_eq!(visited.len(), 6);
        assert_eq!(visited[0], vec![0, 0]);
        assert_eq!(visited[1], vec![0, 1]);
        assert_eq!(visited[5], vec![1, 2]);
    }

    #[test]
    fn permutation_helpers() {
        assert!(is_permutation(&[2, 0, 1]));
        assert!(!is_permutation(&[0, 0, 1]));
        assert!(!is_permutation(&[0, 3]));
        assert_eq!(permute_shape(&[10, 20, 30], &[2, 0, 1]), vec![30, 10, 20]);
        assert_eq!(invert_permutation(&[2, 0, 1]), vec![1, 2, 0]);
    }
}
