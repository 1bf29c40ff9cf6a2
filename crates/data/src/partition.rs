//! Federated data partitioning.
//!
//! The paper uses two decentralisation schemes (§3.2):
//!
//! * **IID**: examples are shuffled and split evenly across users.
//! * **non-IID** (the standard scheme of McMahan et al.): examples are sorted
//!   by label, divided into `2 * num_users` shards, and each user receives 2
//!   shards — so each user only holds examples of a few labels.

use crate::dataset::Dataset;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Assignment of dataset example indices to users.
pub type UserPartition = Vec<Vec<usize>>;

/// Splits `dataset` IID across `num_users` users.
///
/// Every user receives `len / num_users` examples (the remainder is spread
/// over the first users).
///
/// # Panics
///
/// Panics if `num_users` is zero.
pub fn iid_partition(dataset: &Dataset, num_users: usize, seed: u64) -> UserPartition {
    assert!(num_users > 0, "num_users must be positive");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut indices: Vec<usize> = (0..dataset.len()).collect();
    indices.shuffle(&mut rng);
    split_evenly(&indices, num_users)
}

/// Splits `dataset` across `num_users` users with the paper's non-IID shard
/// scheme: sort by label, cut into `shards_per_user * num_users` shards,
/// assign `shards_per_user` shards to each user (shard order randomised).
///
/// # Panics
///
/// Panics if `num_users` or `shards_per_user` is zero.
pub fn non_iid_shards(
    dataset: &Dataset,
    num_users: usize,
    shards_per_user: usize,
    seed: u64,
) -> UserPartition {
    assert!(num_users > 0, "num_users must be positive");
    assert!(shards_per_user > 0, "shards_per_user must be positive");
    let mut rng = StdRng::seed_from_u64(seed);

    // Sort example indices by label.
    let mut indices: Vec<usize> = (0..dataset.len()).collect();
    indices.sort_by_key(|&i| dataset.label(i));

    let num_shards = num_users * shards_per_user;
    let shards = split_evenly(&indices, num_shards);
    let mut shard_ids: Vec<usize> = (0..num_shards).collect();
    shard_ids.shuffle(&mut rng);

    let mut users = vec![Vec::new(); num_users];
    for (slot, &shard_id) in shard_ids.iter().enumerate() {
        users[slot % num_users].extend_from_slice(&shards[shard_id]);
    }
    users
}

fn split_evenly(indices: &[usize], parts: usize) -> Vec<Vec<usize>> {
    let mut out = vec![Vec::new(); parts];
    let base = indices.len() / parts;
    let remainder = indices.len() % parts;
    let mut cursor = 0;
    for (p, bucket) in out.iter_mut().enumerate() {
        let take = base + usize::from(p < remainder);
        bucket.extend_from_slice(&indices[cursor..cursor + take]);
        cursor += take;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synthetic::{generate, SyntheticSpec};
    use proptest::prelude::*;
    use std::collections::BTreeSet;

    fn dataset() -> Dataset {
        generate(&SyntheticSpec::vector(10, 4, 200), 5)
    }

    /// Number of distinct labels a user's local data covers: the measure of
    /// the non-IID pathology (few labels per user).
    fn distinct_labels(dataset: &Dataset, user_indices: &[usize]) -> usize {
        let mut seen = vec![false; dataset.num_classes()];
        for &i in user_indices {
            seen[dataset.label(i)] = true;
        }
        seen.iter().filter(|&&s| s).count()
    }

    #[test]
    fn iid_covers_every_example_once() {
        let d = dataset();
        let users = iid_partition(&d, 7, 1);
        let all: Vec<usize> = users.iter().flatten().cloned().collect();
        assert_eq!(all.len(), d.len());
        let unique: BTreeSet<usize> = all.into_iter().collect();
        assert_eq!(unique.len(), d.len());
    }

    #[test]
    fn iid_users_have_balanced_sizes() {
        let d = dataset();
        let users = iid_partition(&d, 6, 2);
        let sizes: Vec<usize> = users.iter().map(|u| u.len()).collect();
        let min = sizes.iter().min().unwrap();
        let max = sizes.iter().max().unwrap();
        assert!(max - min <= 1);
    }

    #[test]
    fn non_iid_covers_every_example_once() {
        let d = dataset();
        let users = non_iid_shards(&d, 10, 2, 3);
        let all: Vec<usize> = users.iter().flatten().cloned().collect();
        let unique: BTreeSet<usize> = all.iter().cloned().collect();
        assert_eq!(all.len(), d.len());
        assert_eq!(unique.len(), d.len());
    }

    #[test]
    fn non_iid_users_see_few_labels() {
        // 200 examples, 10 classes, 10 users x 2 shards of 10 examples:
        // each user covers at most ~4 labels (usually 2), far fewer than 10.
        let d = dataset();
        let users = non_iid_shards(&d, 10, 2, 3);
        let max_labels = users.iter().map(|u| distinct_labels(&d, u)).max().unwrap();
        assert!(
            max_labels <= 5,
            "non-IID users should see few labels, max was {max_labels}"
        );
    }

    #[test]
    fn iid_users_see_many_labels() {
        let d = dataset();
        let users = iid_partition(&d, 10, 3);
        let min_labels = users.iter().map(|u| distinct_labels(&d, u)).min().unwrap();
        assert!(min_labels >= 6, "IID users should see most labels");
    }

    #[test]
    fn partitions_are_deterministic() {
        let d = dataset();
        assert_eq!(non_iid_shards(&d, 5, 2, 9), non_iid_shards(&d, 5, 2, 9));
        assert_eq!(iid_partition(&d, 5, 9), iid_partition(&d, 5, 9));
    }

    #[test]
    #[should_panic(expected = "num_users must be positive")]
    fn zero_users_panics() {
        iid_partition(&dataset(), 0, 0);
    }

    proptest! {
        #[test]
        fn prop_partitions_preserve_examples(users in 1usize..12, shards in 1usize..4, seed in 0u64..20) {
            let d = generate(&SyntheticSpec::vector(5, 3, 60), 1);
            let p = non_iid_shards(&d, users, shards, seed);
            prop_assert_eq!(p.len(), users);
            let total: usize = p.iter().map(|u| u.len()).sum();
            prop_assert_eq!(total, d.len());
        }
    }
}
