//! The one command-line parser of the workspace's two binaries, `ecg`
//! and `ecg-bench` (whose `time hotpaths|scale` reads `--quick` and
//! `--out` only): each command declares the flags it reads, and
//! anything else — an unknown flag, a missing or malformed value — is
//! an `Err` naming it, never a panic. [`finish`] turns that into
//! `error: …` and exit status 2; so does a failed write to stdout
//! ([`stdout_error`]), such as a closed pipe.

use std::collections::BTreeMap;
use std::io;
use std::process::{ExitCode, Termination};
use std::str::FromStr;

/// Parsed arguments: positionals, and flags with their values (`None`
/// for a switch).
#[derive(Debug, Default)]
pub struct Args {
    positionals: Vec<String>,
    flags: BTreeMap<String, Option<String>>,
}

impl Args {
    /// Parses `args` for a command that reads the switches `switches`
    /// and the valued flags `valued` (names without the `--`). Errors
    /// on an unknown or repeated flag, and on a valued flag followed by
    /// nothing or by another `--flag`.
    pub fn parse<I>(args: I, switches: &[&str], valued: &[&str]) -> Result<Args, String>
    where
        I: IntoIterator<Item = String>,
    {
        let mut parsed = Args::default();
        let mut args = args.into_iter().peekable();
        while let Some(arg) = args.next() {
            let Some(name) = arg.strip_prefix("--") else {
                parsed.positionals.push(arg);
                continue;
            };
            let value = if switches.contains(&name) {
                None
            } else if valued.contains(&name) {
                let value = args.next_if(|v| !v.starts_with("--"));
                Some(value.ok_or_else(|| format!("flag --{name} needs a value"))?)
            } else {
                return Err(format!("unknown flag --{name}"));
            };
            if parsed.flags.insert(name.to_owned(), value).is_some() {
                return Err(format!("flag --{name} given twice"));
            }
        }
        Ok(parsed)
    }

    /// The arguments that are neither flags nor flag values, in order.
    pub fn positionals(&self) -> &[String] {
        &self.positionals
    }

    /// Errors on a positional, for the commands that take none.
    pub fn no_positionals(&self) -> Result<(), String> {
        self.positionals
            .first()
            .map_or(Ok(()), |arg| Err(format!("unexpected argument {arg:?}")))
    }

    /// Whether the switch `--name` was given.
    pub fn switch(&self, name: &str) -> bool {
        self.flags.contains_key(name)
    }

    /// The value of `--name`, when given.
    pub fn value(&self, name: &str) -> Option<&str> {
        self.flags.get(name)?.as_deref()
    }
}

/// `raw` parsed as a value of `--name`, or the error that names both.
pub fn parse_value<T: FromStr>(name: &str, raw: &str) -> Result<T, String> {
    raw.parse()
        .map_err(|_| format!("bad value for --{name}: {raw:?}"))
}

/// The `Err` for a failed write to stdout (a closed pipe, say).
pub fn stdout_error(err: io::Error) -> String {
    format!("cannot write to stdout: {err}")
}

/// A binary's exit: `Err` prints `error: …` to stderr and exits 2.
pub fn finish<T: Termination>(result: Result<T, String>) -> ExitCode {
    result.map_or_else(
        |message| {
            eprintln!("error: {message}");
            ExitCode::from(2)
        },
        Termination::report,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Args, String> {
        Args::parse(
            args.iter().map(|a| a.to_string()),
            &["all", "quick"],
            &["out", "sizes"],
        )
    }

    #[test]
    fn flags_switches_and_positionals_parse() {
        let args = parse(&["fig5", "--out", "dir", "--quick", "fig6", "--sizes", "1,2"])
            .expect("valid arguments");
        assert_eq!(args.positionals(), ["fig5", "fig6"]);
        assert!(args.switch("quick") && !args.switch("all"));
        assert_eq!(args.value("out"), Some("dir"));
        assert_eq!(args.value("sizes"), Some("1,2"));
        assert_eq!(args.value("missing"), None);
        assert_eq!(
            args.no_positionals(),
            Err("unexpected argument \"fig5\"".into())
        );
        assert!(parse(&[]).expect("no arguments").no_positionals().is_ok());
    }

    #[test]
    fn unknown_missing_repeated_and_malformed_flags_are_errors() {
        let err = |args: &[&str]| parse(args).expect_err("a bad invocation");
        assert_eq!(err(&["fig5", "--bogus", "1"]), "unknown flag --bogus");
        assert_eq!(err(&["fig5", "--out"]), "flag --out needs a value");
        assert_eq!(err(&["--out", "--all"]), "flag --out needs a value");
        assert_eq!(err(&["--all", "--all"]), "flag --all given twice");
        assert_eq!(err(&["--out", "a", "--out", "b"]), "flag --out given twice");
        assert_eq!(
            parse_value::<usize>("sizes", "x"),
            Err("bad value for --sizes: \"x\"".into())
        );
    }
}
