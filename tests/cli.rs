//! End-to-end tests of the command-line tool suite
//! (`svm-scale` → `svm-train` → `svm-predict`).

use std::path::PathBuf;
use std::process::Command;

/// A scratch directory private to one test: tests run on parallel threads
/// and each removes its directory when it finishes.
fn workdir(test: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("shrinksvm-cli-test-{}-{test}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Deterministic two-class libsvm-format file: class signal on feature 1.
fn write_dataset(path: &PathBuf, n: usize, seed: u64) {
    let mut state = seed | 1;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state % 2001) as f64 / 1000.0 - 1.0
    };
    let mut out = String::new();
    for i in 0..n {
        let y: f64 = if i % 2 == 0 { 1.0 } else { -1.0 };
        let x0 = y * 1.5 + 0.5 * next();
        let x1 = next() * 3.0;
        out.push_str(&format!("{} 1:{:.4} 2:{:.4}\n", y as i64, x0, x1));
    }
    std::fs::write(path, out).unwrap();
}

fn run(bin: &str, args: &[&str]) -> std::process::Output {
    Command::new(bin).args(args).output().expect("binary runs")
}

#[test]
fn scale_train_predict_pipeline() {
    let dir = workdir("scale_train_predict_pipeline");
    let train = dir.join("train.libsvm");
    let test = dir.join("test.libsvm");
    write_dataset(&train, 240, 7);
    write_dataset(&test, 80, 99);

    // scale: fit on train, save factors, restore for test
    let factors = dir.join("factors");
    let train_scaled = dir.join("train.scaled");
    let test_scaled = dir.join("test.scaled");
    let out = run(
        env!("CARGO_BIN_EXE_svm-scale"),
        &[
            "-u",
            "1",
            "-s",
            factors.to_str().unwrap(),
            train.to_str().unwrap(),
        ],
    );
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    std::fs::write(&train_scaled, &out.stdout).unwrap();
    let out = run(
        env!("CARGO_BIN_EXE_svm-scale"),
        &["-r", factors.to_str().unwrap(), test.to_str().unwrap()],
    );
    assert!(out.status.success());
    std::fs::write(&test_scaled, &out.stdout).unwrap();

    // train distributed with shrinking
    let model = dir.join("m.model");
    let out = run(
        env!("CARGO_BIN_EXE_svm-train"),
        &[
            "-t",
            "2",
            "-g",
            "2",
            "-c",
            "10",
            "-H",
            "Multi5pc",
            "-P",
            "3",
            train_scaled.to_str().unwrap(),
            model.to_str().unwrap(),
        ],
    );
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(model.exists());

    // predict
    let preds = dir.join("preds");
    let out = run(
        env!("CARGO_BIN_EXE_svm-predict"),
        &[
            test_scaled.to_str().unwrap(),
            model.to_str().unwrap(),
            preds.to_str().unwrap(),
        ],
    );
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("Accuracy ="), "{stdout}");
    // pull the percentage out and require a sane classifier
    let pct: f64 = stdout
        .split("Accuracy = ")
        .nth(1)
        .and_then(|s| s.split('%').next())
        .and_then(|s| s.trim().parse().ok())
        .expect("accuracy parse");
    assert!(pct > 90.0, "accuracy {pct}%");
    // one prediction per test line
    let lines = std::fs::read_to_string(&preds).unwrap().lines().count();
    assert_eq!(lines, 80);

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn train_sequential_and_multicore_paths() {
    let dir = workdir("train_sequential_and_multicore_paths");
    let train = dir.join("t2.libsvm");
    write_dataset(&train, 150, 13);
    let model = dir.join("t2.model");

    // sequential with 2nd-order WSS (the default path)
    let out = run(
        env!("CARGO_BIN_EXE_svm-train"),
        &[
            "-t",
            "2",
            "-g",
            "1",
            "-q",
            train.to_str().unwrap(),
            model.to_str().unwrap(),
        ],
    );
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    // multicore
    let out = run(
        env!("CARGO_BIN_EXE_svm-train"),
        &[
            "-T",
            "2",
            "-q",
            train.to_str().unwrap(),
            model.to_str().unwrap(),
        ],
    );
    assert!(out.status.success());

    // weighted classes
    let out = run(
        env!("CARGO_BIN_EXE_svm-train"),
        &[
            "-w+",
            "4",
            "-w-",
            "1",
            "-q",
            train.to_str().unwrap(),
            model.to_str().unwrap(),
        ],
    );
    assert!(out.status.success());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn bad_inputs_fail_cleanly() {
    let out = run(env!("CARGO_BIN_EXE_svm-train"), &["/does/not/exist.libsvm"]);
    assert!(!out.status.success());
    let out = run(env!("CARGO_BIN_EXE_svm-predict"), &["a"]);
    assert!(!out.status.success());
    let dir = workdir("bad_inputs_fail_cleanly");
    let train = dir.join("t3.libsvm");
    write_dataset(&train, 50, 5);
    let out = run(
        env!("CARGO_BIN_EXE_svm-train"),
        &["-H", "bogus", train.to_str().unwrap()],
    );
    assert!(!out.status.success());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn zero_processes_print_usage() {
    let dir = workdir("zero_processes_print_usage");
    let train = dir.join("t4.libsvm");
    write_dataset(&train, 50, 7);
    let out = run(
        env!("CARGO_BIN_EXE_svm-train"),
        &["-P", "0", train.to_str().unwrap()],
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.starts_with("usage: svm-train "), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn non_finite_training_rows_fail_cleanly() {
    let dir = workdir("non_finite_training_rows_fail_cleanly");
    let inf = dir.join("inf.libsvm");
    std::fs::write(
        &inf,
        "+1 1:inf 3:1\n-1 2:0.25 3:-1\n+1 1:1 2:nan\n-1 2:1 3:-0.5\n",
    )
    .unwrap();
    // finite values whose squared norm overflows
    let huge = dir.join("huge.libsvm");
    std::fs::write(
        &huge,
        "-1 2:0.25 3:-1\n+1 1:1e308 3:1e308\n-1 2:1 3:-0.5\n+1 1:1\n",
    )
    .unwrap();
    let model = dir.join("out.model");
    for (train, named) in [(&inf, "row 0 "), (&huge, "row 1 ")] {
        for procs in [None, Some("2")] {
            let mut args: Vec<&str> = Vec::new();
            if let Some(p) = procs {
                args.extend(["-P", p]);
            }
            args.extend([train.to_str().unwrap(), model.to_str().unwrap()]);
            let out = run(env!("CARGO_BIN_EXE_svm-train"), &args);
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
            assert!(stderr.contains(named), "{args:?}: {stderr}");
            assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
            assert!(!model.exists(), "{args:?}: a model was written");
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn columns_past_u32_fail_cleanly() {
    let dir = workdir("columns_past_u32_fail_cleanly");
    // 4294967297 would wrap to column 0 if cast to u32
    let data = dir.join("wide.libsvm");
    std::fs::write(&data, "+1 1:1 2:0.5\n-1 4294967297:5\n+1 1:2\n").unwrap();
    let model = dir.join("out.model");
    let (data, model) = (data.to_str().unwrap(), model.to_str().unwrap());
    for (bin, args) in [
        (env!("CARGO_BIN_EXE_svm-train"), vec![data, model]),
        (env!("CARGO_BIN_EXE_svm-scale"), vec![data]),
    ] {
        let out = run(bin, &args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!out.status.success(), "{bin}: {stderr}");
        assert!(stderr.contains("line 2"), "{bin}: {stderr}");
        assert!(stderr.contains("4294967297"), "{bin}: {stderr}");
        assert!(!stderr.contains("panicked"), "{bin}: {stderr}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Prediction memory follows the model's stored columns: neither a test
/// row's far column nor a model's declared `ncols` sizes any buffer, so
/// `svm-predict` runs inside a 1 GiB address space on both.
#[cfg(unix)]
#[test]
fn prediction_memory_ignores_test_row_width_and_declared_ncols() {
    let dir = workdir("prediction_memory_ignores_test_row_width_and_declared_ncols");
    let model = |ncols: &str| {
        // D(x) = x0 - x1
        format!("shrinksvm-model v1\nkernel linear\nbias 0\nnsv 2 ncols {ncols}\n1 1:1\n-1 2:1\n")
    };
    let narrow_model = dir.join("narrow.model");
    std::fs::write(&narrow_model, model("2")).unwrap();
    let wide_model = dir.join("wide.model");
    std::fs::write(&wide_model, model("4000000000")).unwrap();
    let far_rows = dir.join("far.libsvm");
    std::fs::write(&far_rows, "+1 1:3 2:1 4000000000:7\n-1 2:2 4000000000:1\n").unwrap();
    let rows = dir.join("rows.libsvm");
    std::fs::write(&rows, "+1 1:3 2:1\n-1 2:2\n").unwrap();
    let predictions = dir.join("out.txt");
    for (test, model) in [(&far_rows, &narrow_model), (&rows, &wide_model)] {
        std::fs::remove_file(&predictions).ok();
        let script = format!(
            "ulimit -v 1048576; exec '{}' -q '{}' '{}' '{}'",
            env!("CARGO_BIN_EXE_svm-predict"),
            test.display(),
            model.display(),
            predictions.display()
        );
        let out = Command::new("sh").args(["-c", &script]).output().unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(0), "{script}: {stderr}");
        let labels = std::fs::read_to_string(&predictions).unwrap();
        assert_eq!(labels, "1\n-1\n", "{script}");
    }
    std::fs::remove_dir_all(&dir).ok();
}
