//! The one command-line reader of `act`, the campaign binaries and `perf`.
//!
//! A binary declares its value flags (`--name VALUE`) and its switches
//! (`--name`); [`Flags::parse`] splits its arguments into those and the
//! positionals, and the typed getters read a value. Every way a command
//! line can be wrong is one [`CliError::Usage`], printed as
//! `<prog>: --flag: <what is wrong>` with exit code 2:
//!
//! - an unknown flag (`act serve --worker 2`);
//! - a value flag with no value after it (`perf --out`);
//! - a value that does not parse or does not fit its type (`--runs abc`,
//!   `--seq-len 70000` for a `u16`);
//! - a count or millisecond duration of 0 (`table4 --jobs 0`).
//!
//! A flag given twice keeps its last value.

use act_core::ActError;
use std::fmt;
use std::process::ExitCode;
use std::str::FromStr;
use std::time::Duration;

/// Why a binary stops early.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CliError {
    /// The command line is wrong: exit code 2.
    Usage(String),
    /// The command ran and failed: exit code 1.
    Failed(String),
}

impl CliError {
    /// The process exit code this error ends with.
    pub fn code(&self) -> u8 {
        match self {
            CliError::Usage(_) => 2,
            CliError::Failed(_) => 1,
        }
    }

    /// Print `prog: message` to stderr and hand back the exit code.
    pub fn report(&self, prog: &str) -> ExitCode {
        eprintln!("{prog}: {self}");
        ExitCode::from(self.code())
    }

    /// [`CliError::report`], then exit.
    pub fn exit(&self, prog: &str) -> ! {
        self.report(prog);
        std::process::exit(self.code().into())
    }
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::Usage(why) | CliError::Failed(why) => f.write_str(why),
        }
    }
}

impl From<ActError> for CliError {
    fn from(e: ActError) -> CliError {
        CliError::Failed(e.to_string())
    }
}

/// A parsed command line: positionals, value flags and switches.
#[derive(Debug, Default)]
pub struct Flags {
    positional: Vec<String>,
    values: Vec<(String, String)>,
    switches: Vec<String>,
}

impl Flags {
    /// Split `argv` (the arguments after the program or subcommand name):
    /// `--name` is a value flag when `values` lists it (the next argument
    /// is its value, whatever it looks like), a switch when `switches`
    /// does, and an error otherwise; anything else is a positional.
    ///
    /// # Errors
    ///
    /// An unknown flag, or a value flag that ends `argv`.
    pub fn parse<S: AsRef<str>>(
        argv: &[S],
        values: &[&str],
        switches: &[&str],
    ) -> Result<Flags, CliError> {
        let mut flags = Flags::default();
        let mut args = argv.iter().map(AsRef::as_ref);
        while let Some(arg) = args.next() {
            let Some(name) = arg.strip_prefix("--") else {
                flags.positional.push(arg.to_string());
                continue;
            };
            if values.contains(&name) {
                let value = args.next().ok_or_else(|| bad(name, "missing value"))?;
                flags.values.push((name.to_string(), value.to_string()));
            } else if switches.contains(&name) {
                flags.switches.push(name.to_string());
            } else {
                return Err(bad(name, "unknown flag"));
            }
        }
        Ok(flags)
    }

    /// The `i`-th positional, if given.
    pub fn positional(&self, i: usize) -> Option<&str> {
        self.positional.get(i).map(String::as_str)
    }

    /// The `i`-th positional, which the command needs; `what` names it in
    /// the error.
    ///
    /// # Errors
    ///
    /// Fewer than `i + 1` positionals.
    pub fn arg(&self, i: usize, what: &str) -> Result<&str, CliError> {
        self.positional(i).ok_or_else(|| CliError::Usage(format!("missing {what}")))
    }

    /// Whether switch `--name` was given.
    pub fn switch(&self, name: &str) -> bool {
        self.switches.iter().any(|s| s == name)
    }

    /// The raw value of `--name`, if given.
    pub fn value(&self, name: &str) -> Option<&str> {
        self.values.iter().rev().find(|(n, _)| n == name).map(|(_, v)| v.as_str())
    }

    /// The raw value of `--name`, which the command needs.
    ///
    /// # Errors
    ///
    /// `--name` was not given.
    pub fn required(&self, name: &str) -> Result<&str, CliError> {
        self.value(name).ok_or_else(|| bad(name, "required"))
    }

    /// `--name`'s value read by `read`, whose `Err` says what is wrong
    /// with it; `None` when the flag was not given.
    ///
    /// # Errors
    ///
    /// `read` refused the value.
    pub fn parsed<T>(
        &self,
        name: &str,
        read: impl FnOnce(&str) -> Result<T, String>,
    ) -> Result<Option<T>, CliError> {
        let Some(raw) = self.value(name) else { return Ok(None) };
        read(raw).map(Some).map_err(|why| bad(name, &format!("bad value `{raw}` ({why})")))
    }

    /// `--name` parsed as a `T`.
    ///
    /// # Errors
    ///
    /// The value does not parse as a `T`, or does not fit it.
    pub fn get<T: FromStr>(&self, name: &str) -> Result<Option<T>, CliError>
    where
        T::Err: fmt::Display,
    {
        self.parsed(name, |raw| raw.parse().map_err(|e: T::Err| e.to_string()))
    }

    /// `--name` as a count: an integer of at least 1.
    ///
    /// # Errors
    ///
    /// As [`Flags::get`], or the value is 0.
    pub fn count<T: FromStr + Default + PartialEq>(&self, name: &str) -> Result<Option<T>, CliError>
    where
        T::Err: fmt::Display,
    {
        self.parsed(name, |raw| match raw.parse::<T>() {
            Ok(n) if n == T::default() => Err("must be at least 1".to_string()),
            Ok(n) => Ok(n),
            Err(e) => Err(e.to_string()),
        })
    }

    /// `--name` as a duration in whole milliseconds, at least 1.
    ///
    /// # Errors
    ///
    /// As [`Flags::count`].
    pub fn millis(&self, name: &str) -> Result<Option<Duration>, CliError> {
        Ok(self.count(name)?.map(Duration::from_millis))
    }
}

/// The one shape of a command-line error: `--name: why`.
fn bad(name: &str, why: &str) -> CliError {
    CliError::Usage(format!("--{name}: {why}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(argv: &[&str]) -> Result<Flags, CliError> {
        Flags::parse(
            argv,
            &[
                "jobs",
                "out",
                "runs",
                "seq-len",
                "queue-depth",
                "connect-timeout",
                "io-timeout",
                "retry",
            ],
            &["no-timing", "stream"],
        )
    }

    fn flags(argv: &[&str]) -> Flags {
        parse(argv).expect("a valid command line")
    }

    fn usage(e: Result<impl fmt::Debug, CliError>) -> String {
        match e {
            Err(CliError::Usage(why)) => why,
            other => panic!("expected a usage error, got {other:?}"),
        }
    }

    #[test]
    fn positionals_values_and_switches_are_told_apart() {
        let f = flags(&["seq", "--runs", "3", "--stream", "extra", "--out", "-5"]);
        assert_eq!(
            (f.positional(0), f.positional(1), f.positional(2)),
            (Some("seq"), Some("extra"), None)
        );
        assert_eq!(f.value("runs"), Some("3"));
        assert_eq!(f.value("out"), Some("-5"), "a value flag takes the next argument as is");
        assert!(f.switch("stream") && !f.switch("no-timing"));
        assert_eq!(f.arg(0, "workload"), Ok("seq"));
        assert_eq!(usage(f.arg(2, "a key")), "missing a key");
        assert_eq!(flags(&["--runs", "1", "--runs", "2"]).value("runs"), Some("2"), "last wins");
    }

    #[test]
    fn each_bad_command_line_is_one_usage_error_with_exit_code_2() {
        assert_eq!(usage(parse(&["--worker", "2"])), "--worker: unknown flag");
        assert_eq!(usage(parse(&["--out"])), "--out: missing value");
        let f = flags(&["--runs", "abc", "--seq-len", "70000", "--jobs", "0"]);
        assert_eq!(
            usage(f.get::<u64>("runs")),
            "--runs: bad value `abc` (invalid digit found in string)"
        );
        assert_eq!(
            usage(f.get::<u16>("seq-len")),
            "--seq-len: bad value `70000` (number too large to fit in target type)"
        );
        assert_eq!(usage(f.count::<usize>("jobs")), "--jobs: bad value `0` (must be at least 1)");
        assert_eq!(usage(f.required("out")), "--out: required");
        assert_eq!(CliError::Usage(String::new()).code(), 2);
        assert_eq!(CliError::Failed(String::new()).code(), 1);
    }

    #[test]
    fn absent_flags_fall_back_to_the_given_defaults() {
        // An absent flag reads as `None`, which each caller's `unwrap_or`
        // turns into its own default (and no `--retry` means fail fast).
        let f = flags(&[]);
        for flag in ["connect-timeout", "io-timeout", "retry"] {
            assert_eq!(f.millis(flag), Ok(None), "--{flag}");
        }
    }

    #[test]
    fn explicit_values_override_defaults() {
        let f = flags(&["--connect-timeout", "250", "--io-timeout", "9000", "--retry", "40"]);
        assert_eq!(f.millis("connect-timeout"), Ok(Some(Duration::from_millis(250))));
        assert_eq!(f.millis("io-timeout"), Ok(Some(Duration::from_millis(9_000))));
        assert_eq!(f.millis("retry"), Ok(Some(Duration::from_millis(40))));
    }

    #[test]
    fn zero_is_rejected_for_every_net_flag() {
        for flag in ["connect-timeout", "io-timeout", "retry"] {
            let switch = format!("--{flag}");
            assert!(flags(&[&switch, "0"]).millis(flag).is_err(), "--{flag} 0 must be rejected");
        }
    }

    #[test]
    fn garbage_is_rejected_for_every_net_flag() {
        for flag in ["connect-timeout", "io-timeout", "retry"] {
            for bad in ["abc", "-5", "1.5", ""] {
                let switch = format!("--{flag}");
                assert!(
                    flags(&[&switch, bad]).millis(flag).is_err(),
                    "--{flag} {bad:?} must be rejected"
                );
            }
        }
    }

    #[test]
    fn counts_reject_zero_and_garbage_but_accept_numbers() {
        let count = |argv: &[&str]| flags(argv).count::<usize>("queue-depth");
        assert_eq!(count(&["--queue-depth", "128"]), Ok(Some(128)));
        assert_eq!(count(&[]).map(|n| n.unwrap_or(64)), Ok(64));
        assert!(count(&["--queue-depth", "0"]).is_err());
        assert!(count(&["--queue-depth", "many"]).is_err());
    }
}
