//! Every harness binary reads its command line before any work: an
//! unknown flag prints the usage, exits 2 and leaves no `results/` behind.

use std::process::Command;

const BINARIES: [(&str, &str); 7] = [
    ("paper_claims", env!("CARGO_BIN_EXE_paper_claims")),
    ("table2_ispd2006", env!("CARGO_BIN_EXE_table2_ispd2006")),
    ("table3_ispd2019", env!("CARGO_BIN_EXE_table3_ispd2019")),
    (
        "multilevel_scaling",
        env!("CARGO_BIN_EXE_multilevel_scaling"),
    ),
    (
        "peko_suboptimality",
        env!("CARGO_BIN_EXE_peko_suboptimality"),
    ),
    ("serve_soak", env!("CARGO_BIN_EXE_serve_soak")),
    ("verify_placement", env!("CARGO_BIN_EXE_verify_placement")),
];

#[test]
fn every_harness_binary_refuses_an_unknown_flag_before_any_work() {
    for (name, exe) in BINARIES {
        let dir =
            std::env::temp_dir().join(format!("mep_harness_cli_{}_{name}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let out = Command::new(exe)
            .arg("--no-such-flag")
            .current_dir(&dir)
            .output()
            .unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{name}: {stderr}");
        assert!(
            stderr.contains("unknown flag `--no-such-flag`"),
            "{name}: {stderr}"
        );
        assert!(
            stderr.contains(&format!("usage: {name}")),
            "{name}: {stderr}"
        );
        assert!(!dir.join("results").exists(), "{name} created results/");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
