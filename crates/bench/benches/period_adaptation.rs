//! Criterion bench: the closed-form period adaptation of Eq. (7) (the paper
//! solves these instances with GPkit + CVXOPT; the closed form is what makes
//! HYDRA cheap here).

use criterion::{criterion_group, criterion_main, Criterion};
use hydra_core::interference::InterferenceBound;
use hydra_core::period::adapt_period;
use hydra_core::SecurityTask;
use rt_core::Time;

fn instance() -> (SecurityTask, InterferenceBound) {
    let task = SecurityTask::new(
        Time::from_millis(375),
        Time::from_millis(5_000),
        Time::from_millis(50_000),
    )
    .unwrap();
    let bound = InterferenceBound {
        constant: 800_000.0,
        slope: 0.55,
    };
    (task, bound)
}

fn bench_period_adaptation(c: &mut Criterion) {
    let (task, bound) = instance();
    c.bench_function("period_adaptation_closed_form", |b| {
        b.iter(|| adapt_period(std::hint::black_box(&task), std::hint::black_box(&bound)));
    });
}

criterion_group!(benches, bench_period_adaptation);
criterion_main!(benches);
