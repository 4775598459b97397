//! What every harness binary shares around its run: one strict
//! command-line reader ([`Args`]) and one rule for the committed
//! `results/` files ([`Artifacts`]).

use std::path::PathBuf;
use std::str::FromStr;

/// A harness binary's command line, read against the arguments it
/// declares.
#[derive(Debug, Default)]
pub struct Args {
    usage: String,
    /// The flags given, each with its value if it takes one.
    flags: Vec<(&'static str, Option<String>)>,
    positional: Vec<String>,
}

impl Args {
    /// Reads this process's command line for the binary `bin`, which
    /// declares `spec`: a switch `--name`, a flag with a value
    /// `--name VALUE`, a positional `<name>` or an optional positional
    /// `[name]`, positionals in order. An unknown or repeated flag, a flag
    /// without its value, or a missing or surplus positional prints the
    /// usage and exits 2.
    pub fn read(bin: &str, spec: &[&'static str]) -> Self {
        let mut args = Self {
            usage: usage(bin, spec),
            ..Self::default()
        };
        let line: Vec<String> = std::env::args().skip(1).collect();
        if let Err(why) = args.take(spec, &line) {
            args.refuse(&why);
        }
        args
    }

    /// Takes `line` in, each flag declared in `spec` and given once;
    /// `Err` names the first thing [`Args::read`] refuses.
    fn take(&mut self, spec: &[&'static str], line: &[String]) -> Result<(), String> {
        let mut line = line.iter();
        while let Some(arg) = line.next() {
            if !arg.starts_with("--") {
                self.positional.push(arg.clone());
                continue;
            }
            let decl = spec.iter().find(|s| s.split(' ').next() == Some(arg));
            let decl = decl.ok_or_else(|| format!("unknown flag `{arg}`"))?;
            let (name, takes_value) = decl
                .split_once(' ')
                .map_or((*decl, false), |(n, _)| (n, true));
            if self.switch(name) {
                return Err(format!("{name} given twice"));
            }
            let value = if takes_value {
                let given = line.next().filter(|v| !v.starts_with("--"));
                Some(given.ok_or(format!("{name} needs a value"))?.clone())
            } else {
                None
            };
            self.flags.push((name, value));
        }
        let declared: Vec<_> = spec.iter().filter(|s| !s.starts_with("--")).collect();
        if let Some(extra) = self.positional.get(declared.len()) {
            return Err(format!("unexpected argument `{extra}`"));
        }
        let mut missing = declared.iter().skip(self.positional.len());
        match missing.find(|p| p.starts_with('<')) {
            Some(p) => Err(format!("missing {p}")),
            None => Ok(()),
        }
    }

    /// Whether the flag `name` was given.
    pub fn switch(&self, name: &str) -> bool {
        self.flags.iter().any(|(f, _)| *f == name)
    }

    /// The value of the flag `name`, if it was given.
    pub fn value(&self, name: &str) -> Option<&str> {
        let given = self.flags.iter().find(|(f, _)| *f == name);
        given.and_then(|(_, v)| v.as_deref())
    }

    /// Positional `i` read as a `T`, if it was given. A value that is no
    /// `T` prints the usage and exits 2.
    pub fn positional<T: FromStr>(&self, i: usize) -> Option<T> {
        let raw = self.positional.get(i)?;
        let bad = || self.refuse(&format!("cannot read `{raw}`"));
        Some(raw.parse().unwrap_or_else(|_| bad()))
    }

    /// Prints `why` and the usage, and exits 2: for a combination of
    /// arguments the binary does not take.
    pub fn refuse(&self, why: &str) -> ! {
        eprintln!("error: {why}\n{}", self.usage);
        std::process::exit(2)
    }
}

/// The usage line of `bin` declaring `spec`, flags in brackets.
fn usage(bin: &str, spec: &[&str]) -> String {
    let bracket = |s: &&str| match s.starts_with("--") {
        true => format!(" [{s}]"),
        false => format!(" {s}"),
    };
    format!(
        "usage: {bin}{}",
        spec.iter().map(bracket).collect::<String>()
    )
}

/// The committed `results/` files of one harness run, held until the run
/// is over. The rule: only a full-size run whose checks all passed writes
/// them ([`Artifacts::commit`]). A `--fast` run prints its tables and
/// writes nothing, so every committed file comes from a full run.
#[derive(Debug, Default)]
pub struct Artifacts(Vec<(PathBuf, String)>);

impl Artifacts {
    /// Holds `contents` for `path`.
    pub fn add(&mut self, path: impl Into<PathBuf>, contents: impl Into<String>) {
        self.0.push((path.into(), contents.into()));
    }

    /// Holds `lines` for `path`, one per line.
    pub fn jsonl(&mut self, path: impl Into<PathBuf>, lines: impl IntoIterator<Item = String>) {
        self.add(
            path,
            lines.into_iter().map(|l| l + "\n").collect::<String>(),
        );
    }

    /// Writes every held file, creating parent directories, if `write`
    /// (the run was full-size and its checks all passed); otherwise
    /// writes nothing and says so.
    ///
    /// # Errors
    ///
    /// Names the first file that could not be written.
    pub fn commit(self, write: bool) -> Result<(), String> {
        if !write {
            println!("(no file written)");
            return Ok(());
        }
        for (path, contents) in self.0 {
            let dir = path.parent().map_or(Ok(()), std::fs::create_dir_all);
            dir.and_then(|()| std::fs::write(&path, contents))
                .map_err(|e| format!("could not write {}: {e}", path.display()))?;
            println!("wrote {}", path.display());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const PEKO: [&str; 2] = ["--fast", "--guard BASELINE"];
    const VERIFY: [&str; 2] = ["<circuit.aux>", "[target_density]"];

    fn parse(spec: &[&'static str], line: &str) -> Result<Args, String> {
        let line: Vec<String> = line.split_whitespace().map(String::from).collect();
        let mut args = Args::default();
        args.take(spec, &line).map(|()| args)
    }

    #[test]
    fn declared_flags_and_positionals_are_read() {
        let a = parse(&PEKO, "--guard b.json --fast").unwrap();
        assert!(a.switch("--fast"));
        assert_eq!(a.value("--guard"), Some("b.json"));
        assert_eq!(parse(&PEKO, "--fast").unwrap().value("--guard"), None);
        assert!(!parse(&PEKO, "").unwrap().switch("--fast"));
        let a = parse(&VERIFY, "x.aux 0.8").unwrap();
        assert_eq!(a.positional::<String>(0).as_deref(), Some("x.aux"));
        assert_eq!(a.positional::<f64>(1), Some(0.8));
        assert_eq!(parse(&VERIFY, "x.aux").unwrap().positional::<f64>(1), None);
    }

    #[test]
    fn every_malformed_line_is_refused_with_its_reason() {
        for (spec, line, why) in [
            (&PEKO[..], "--gaurd b.json", "unknown flag `--gaurd`"),
            (&PEKO, "--fast --fast", "--fast given twice"),
            (&PEKO, "--guard", "--guard needs a value"),
            (&PEKO, "--guard --fast", "--guard needs a value"),
            (&PEKO, "stray", "unexpected argument `stray`"),
            (&PEKO, "--shrink 3", "unknown flag `--shrink`"),
            (&PEKO, "--out r.jsonl", "unknown flag `--out`"),
            (&VERIFY, "", "missing <circuit.aux>"),
            (&VERIFY, "a b c", "unexpected argument `c`"),
            (&[], "--fast", "unknown flag `--fast`"),
        ] {
            assert_eq!(parse(spec, line).unwrap_err(), why, "{line:?}");
        }
        assert_eq!(
            usage("peko", &PEKO),
            "usage: peko [--fast] [--guard BASELINE]"
        );
        assert_eq!(
            usage("v", &VERIFY),
            "usage: v <circuit.aux> [target_density]"
        );
    }

    #[test]
    fn artifacts_are_written_only_from_a_full_run_that_passed() {
        let dir = std::env::temp_dir().join(format!("mep_artifacts_{}", std::process::id()));
        let path = dir.join("sub").join("a.jsonl");
        let held = |path: &PathBuf| {
            let mut a = Artifacts::default();
            a.jsonl(path, ["{}".to_string(), "[]".to_string()]);
            a
        };
        held(&path).commit(false).unwrap();
        assert!(!dir.exists());
        held(&path).commit(true).unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "{}\n[]\n");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
