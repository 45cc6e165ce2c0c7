//! Running a workload: the seeded machine every experiment and the
//! diagnosis daemon use, and the two searches ACT's method is built from —
//! correct runs (training traces and the Correct Set, §III-B and §III-D)
//! and the first failure (one production failure, never reproduced).
//!
//! Both searches attach any [`Observer`] the caller makes for the build,
//! so a trace collector and a baseline's predicate collector run the same
//! code, and each caller keeps its own collector settings.

use crate::spec::{BuiltWorkload, Params, Workload};
use act_sim::attach::Observer;
use act_sim::config::MachineConfig;
use act_sim::machine::Machine;
use act_sim::outcome::RunOutcome;

/// Machine configuration for a seeded workload run: the paper's Table III
/// defaults plus 10 000 ppm of dispatch jitter, so seeded runs interleave
/// differently.
pub fn machine_cfg(seed: u64) -> MachineConfig {
    MachineConfig { seed, jitter_ppm: 10_000, ..Default::default() }
}

/// The code length that normalizes `w`'s instruction addresses: the
/// workload's fixed override if it has one, else the built program's
/// length.
pub fn norm_of(w: &dyn Workload) -> usize {
    w.norm_code_len().unwrap_or_else(|| w.build(&w.default_params()).program.code_len())
}

/// One observed run of a workload.
#[derive(Debug)]
pub struct ObservedRun<O> {
    /// The seed that drove both the inputs and the interleaving.
    pub seed: u64,
    /// The program that ran, with its oracle.
    pub built: BuiltWorkload,
    /// How the run ended.
    pub outcome: RunOutcome,
    /// The observer, after the run.
    pub observer: O,
}

/// Build `w` from `params` at `seed` and run it on [`machine_cfg`]`(seed)`
/// with the observer `observe` makes for the build attached.
fn run_seed<O: Observer>(
    w: &dyn Workload,
    params: Params,
    seed: u64,
    observe: &mut impl FnMut(&BuiltWorkload) -> O,
) -> ObservedRun<O> {
    let built = w.build(&params.with_seed(seed));
    let mut observer = observe(&built);
    let outcome = Machine::new(&built.program, machine_cfg(seed)).run_observed(&mut observer);
    ObservedRun { seed, built, outcome, observer }
}

/// The correct runs of `w` built from `params` (reseeded per run), one
/// run per seed in `seeds`, in seed order. Lazy: taking the first `n`
/// runs no seed past the `n`-th correct one.
pub fn correct_runs<'a, O, F>(
    w: &'a dyn Workload,
    params: Params,
    seeds: impl IntoIterator<Item = u64> + 'a,
    mut observe: F,
) -> impl Iterator<Item = ObservedRun<O>> + 'a
where
    O: Observer + 'a,
    F: FnMut(&BuiltWorkload) -> O + 'a,
{
    seeds
        .into_iter()
        .map(move |seed| run_seed(w, params, seed, &mut observe))
        .filter(|run| run.built.is_correct(&run.outcome))
}

/// The first run of `w` built from `params` (reseeded per run) that fails
/// its oracle, trying `seeds` in order; `None` if every one is correct.
pub fn first_failure<O: Observer>(
    w: &dyn Workload,
    params: Params,
    seeds: impl IntoIterator<Item = u64>,
    mut observe: impl FnMut(&BuiltWorkload) -> O,
) -> Option<ObservedRun<O>> {
    seeds
        .into_iter()
        .map(|seed| run_seed(w, params, seed, &mut observe))
        .find(|run| run.built.is_failure(&run.outcome))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry;
    use act_sim::attach::NullObserver;
    use act_sim::events::LoadEvent;

    /// Counts retired loads, so a test can tell runs apart.
    #[derive(Default)]
    struct Loads(u64);

    impl Observer for Loads {
        fn on_load(&mut self, _ev: &LoadEvent) {
            self.0 += 1;
        }
    }

    #[test]
    fn correct_runs_keep_only_correct_runs_in_seed_order() {
        let w = registry::by_name("seq").unwrap();
        let clean: Vec<u64> = correct_runs(w.as_ref(), w.default_params(), 0..4, |_| NullObserver)
            .map(|run| run.seed)
            .collect();
        assert_eq!(clean, [0, 1, 2, 3], "seq's clean configuration is always correct");
        let triggered = w.default_params().triggered();
        assert_eq!(
            correct_runs(w.as_ref(), triggered, 0..4, |_| NullObserver).count(),
            0,
            "seq's triggered input always fails"
        );
    }

    #[test]
    fn correct_runs_are_lazy() {
        let w = registry::by_name("seq").unwrap();
        let mut built = 0;
        let first: Vec<_> = correct_runs(w.as_ref(), w.default_params(), 0..100, |_| {
            built += 1;
            Loads::default()
        })
        .take(2)
        .collect();
        assert_eq!(first.len(), 2);
        assert!(first.iter().all(|run| run.observer.0 > 0), "the observer saw the run");
        assert_eq!(built, 2, "no seed past the second correct run was simulated");
    }

    #[test]
    fn first_failure_finds_the_first_failing_seed() {
        let w = registry::by_name("seq").unwrap();
        let run = first_failure(w.as_ref(), w.default_params().triggered(), 5..9, |_| Loads(0))
            .expect("seq's triggered input fails");
        assert_eq!(run.seed, 5);
        assert!(run.built.bug.is_some() && run.built.is_failure(&run.outcome));
        assert!(first_failure(w.as_ref(), w.default_params(), 0..3, |_| NullObserver).is_none());
    }

    #[test]
    fn runs_use_the_seeded_machine() {
        let cfg = machine_cfg(7);
        assert_eq!((cfg.seed, cfg.jitter_ppm), (7, 10_000));
        let w = registry::by_name("lu").unwrap();
        assert_eq!(norm_of(w.as_ref()), w.build(&w.default_params()).program.code_len());
    }
}
