//! Kernel dispatch integration tests: every microkernel path produces
//! the scalar reference's bits, also when several threads run products
//! at once, a fresh process's auto-detected dispatch produces the same
//! bits (same respawn pattern as `crates/core/tests/determinism_respawn.rs`),
//! NaN/Inf propagate through the SIMD paths, and blocking cannot change
//! result bits.

use deepsd_nn::{
    kernel_path, matmul_ref, set_tuning, tuning, with_kernel_path, KernelPath, Matrix, Tuning,
};
use std::process::Command;

const CHILD_ENV: &str = "DEEPSD_DISPATCH_CHILD";

fn mat(rows: usize, cols: usize, seed: u32) -> Matrix {
    let mut state = seed.wrapping_mul(2654435761).wrapping_add(1);
    Matrix::from_fn(rows, cols, |_, _| {
        state = state.wrapping_mul(1664525).wrapping_add(1013904223);
        (state >> 8) as f32 / (1u32 << 22) as f32 - 2.0
    })
}

fn bits(m: &Matrix) -> Vec<u32> {
    m.as_slice().iter().map(|v| v.to_bits()).collect()
}

fn supported_paths() -> Vec<KernelPath> {
    KernelPath::ALL
        .into_iter()
        .filter(|p| p.supported())
        .collect()
}

/// Every supported path, called from 1, 2 and 8 threads at once, over
/// shapes that hit full tiles, ragged edges, tall-skinny and wide-flat
/// blocks — all must equal the scalar reference bit for bit. GEMMs run
/// on their calling thread, so concurrent callers (the shard pool's
/// workers, the chunk workers) share no kernel state but the
/// process-wide blocking parameters.
#[test]
fn forced_dispatch_matches_reference_at_all_thread_counts() {
    for &(m, k, n) in &[
        (64usize, 64usize, 64usize), // full tiles only
        (67, 130, 41),               // ragged in every dimension
        (256, 8, 4),                 // tall-skinny: several row blocks
        (3, 9, 250),                 // wide-flat
        (1, 1, 1),
        (0, 5, 3), // empty output
    ] {
        let a = mat(m, k, 100 + m as u32);
        let b = mat(k, n, 200 + n as u32);
        let reference = bits(&matmul_ref(&a, &b));
        for threads in [1usize, 2, 8] {
            std::thread::scope(|scope| {
                for worker in 0..threads {
                    let (a, b, reference) = (&a, &b, &reference);
                    scope.spawn(move || {
                        for path in supported_paths() {
                            let got =
                                with_kernel_path(path, || a.matmul(b)).expect("path supported");
                            assert_eq!(
                                &bits(&got),
                                reference,
                                "{m}x{k}x{n} path {path} worker {worker} of {threads}"
                            );
                        }
                    });
                }
            });
        }
    }
}

/// NaN and Inf flow through the SIMD paths exactly as through the
/// scalar fold: `mul`+`add` per reduction index, no skips, no FMA.
#[test]
fn nan_and_inf_propagate_through_every_path() {
    let mut a = mat(16, 24, 7);
    a.set(3, 5, f32::NAN);
    a.set(9, 0, f32::INFINITY);
    a.set(10, 1, f32::NEG_INFINITY);
    let mut b = mat(24, 16, 8);
    b.set(2, 2, f32::NAN);
    let reference = matmul_ref(&a, &b);
    assert!(
        reference.as_slice().iter().any(|v| v.is_nan()),
        "test setup must actually produce NaNs"
    );
    for path in supported_paths() {
        let got = with_kernel_path(path, || a.matmul(&b)).expect("path supported");
        assert_eq!(bits(&got), bits(&reference), "path {path}");
    }
}

/// Blocking parameters move throughput only: any (mc, kc) combination
/// yields the same bits on every path.
#[test]
fn tuning_is_bit_invariant_on_every_path() {
    let a = mat(70, 140, 21);
    let b = mat(140, 53, 22);
    let reference = matmul_ref(&a, &b);
    let prev = tuning();
    for (mc, kc) in [(4usize, 8usize), (32, 96), (512, 1024)] {
        set_tuning(Tuning { mc, kc });
        for path in supported_paths() {
            let got = with_kernel_path(path, || a.matmul(&b)).expect("path supported");
            assert_eq!(bits(&got), bits(&reference), "mc={mc} kc={kc} path {path}");
        }
    }
    set_tuning(prev);
}

/// Checksum of the product the child and the parent both compute.
fn product_checksum() -> String {
    let a = mat(33, 40, 1);
    let b = mat(40, 17, 2);
    let checksum: u64 = a.matmul(&b).as_slice().iter().fold(0u64, |acc, v| {
        acc.wrapping_mul(31).wrapping_add(v.to_bits() as u64)
    });
    format!("{checksum:016x}")
}

/// Child mode for the fresh-process test: prints the auto-detected
/// dispatch path and a product checksum. No-op without the env gate.
#[test]
fn child_reports_dispatch() {
    if std::env::var_os(CHILD_ENV).is_none() {
        return;
    }
    println!("KERNEL_PATH={}", kernel_path());
    println!("CHECKSUM={}", product_checksum());
}

/// Respawns this binary in child mode and returns
/// `(resolved path, product checksum)`.
fn spawn_child() -> (String, String) {
    let exe = std::env::current_exe().expect("test binary path");
    let out = Command::new(exe)
        .args(["--exact", "child_reports_dispatch", "--nocapture"])
        .env(CHILD_ENV, "1")
        .output()
        .expect("respawn test binary");
    assert!(
        out.status.success(),
        "child failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("child stdout is UTF-8");
    // libtest may glue its own "test … " prefix onto the same stdout
    // line, so search within lines rather than anchoring to the start.
    let grab = |key: &str| {
        stdout
            .lines()
            .find_map(|l| l.split_once(key).map(|(_, v)| v.trim().to_string()))
            .unwrap_or_else(|| panic!("missing {key} in:\n{stdout}"))
    };
    (grab("KERNEL_PATH="), grab("CHECKSUM="))
}

/// A fresh process auto-detects a real path, and its product has the
/// bits this process computes on every supported path (bit identity
/// again, this time across process boundaries).
#[test]
fn fresh_process_dispatch_matches_in_process() {
    let (auto_path, auto_sum) = spawn_child();
    assert!(
        KernelPath::ALL.iter().any(|p| p.as_str() == auto_path),
        "auto-detected path must be a real path, got {auto_path:?}"
    );
    for path in supported_paths() {
        let sum = with_kernel_path(path, product_checksum).expect("path supported");
        assert_eq!(sum, auto_sum, "path {path} changed result bits");
    }
}
