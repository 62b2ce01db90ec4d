//! Shared command-line handling for the binaries of this crate.
//!
//! [`Cli`] gives each binary a declared flag/positional vocabulary:
//! unknown arguments print a usage message and exit non-zero (a typo
//! like `--jsno` must not run the full experiment and then write
//! nothing), and `--help` prints the same message and exits zero.
//! [`Cli::parse`] returns the validated [`CliArgs`], and the binary
//! reads every flag, option and positional from them.

/// A rejected command line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CliError {
    /// An argument starting with `-` that the binary does not declare.
    UnknownFlag(String),
    /// More positional arguments than the binary accepts.
    UnexpectedPositional(String),
    /// A valued option (e.g. `--jobs`) given without a value.
    MissingValue(String),
    /// A valued option whose value fails validation.
    InvalidValue {
        /// The option name.
        option: String,
        /// The rejected value.
        value: String,
    },
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CliError::UnknownFlag(a) => write!(f, "unrecognized flag: {a}"),
            CliError::UnexpectedPositional(a) => write!(f, "unexpected argument: {a}"),
            CliError::MissingValue(a) => write!(f, "{a} requires a value"),
            CliError::InvalidValue { option, value } => {
                write!(f, "invalid value for {option}: {value:?} (expected a positive integer)")
            }
        }
    }
}

impl std::error::Error for CliError {}

/// Declared command-line vocabulary of one binary.
#[derive(Debug)]
pub struct Cli {
    name: &'static str,
    about: &'static str,
    flags: Vec<(&'static str, &'static str)>,
    options: Vec<(&'static str, &'static str, &'static str)>,
    positional: Option<(&'static str, &'static str, usize)>,
}

/// The validated arguments.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CliArgs {
    flags: Vec<String>,
    values: Vec<(String, String)>,
    positionals: Vec<String>,
}

impl CliArgs {
    /// True when `flag` was passed.
    pub fn has(&self, flag: &str) -> bool {
        self.flags.iter().any(|f| f == flag)
    }

    /// The value of option `name` (last occurrence wins), if passed.
    pub fn value(&self, name: &str) -> Option<&str> {
        self.values.iter().rev().find(|(n, _)| n == name).map(|(_, v)| v.as_str())
    }

    /// The worker count for the simulation fan-out: the validated
    /// `--jobs N` value when passed, else the machine's available
    /// parallelism (1 when unknown). `--jobs 1` is the sequential
    /// reference path; any other count produces byte-identical
    /// artifacts through the deterministic [`crate::JobPool`].
    pub fn jobs(&self) -> usize {
        match self.value("--jobs") {
            // Validated positive at parse time.
            Some(v) => v.parse().unwrap_or(1),
            None => crate::available_jobs(),
        }
    }

    /// The positional arguments, in order.
    pub fn positionals(&self) -> &[String] {
        &self.positionals
    }

    /// The first positional argument, if any.
    pub fn positional(&self) -> Option<&str> {
        self.positionals.first().map(String::as_str)
    }
}

impl Cli {
    /// Starts a vocabulary for binary `name`. `--json`, `--jobs N` and
    /// `--help` are pre-declared — every binary in this crate supports
    /// all three.
    pub fn new(name: &'static str, about: &'static str) -> Cli {
        Cli {
            name,
            about,
            flags: vec![("--json", "additionally write results/<name>.json")],
            options: vec![(
                "--jobs",
                "N",
                "parallel simulation workers (default: available cores; 1 = sequential)",
            )],
            positional: None,
        }
    }

    /// Declares an extra boolean flag.
    pub fn flag(mut self, name: &'static str, help: &'static str) -> Cli {
        self.flags.push((name, help));
        self
    }

    /// Declares an extra valued option (`--name VALUE` / `--name=VALUE`).
    pub fn option(mut self, name: &'static str, metavar: &'static str, help: &'static str) -> Cli {
        self.options.push((name, metavar, help));
        self
    }

    /// Declares up to `max` positional arguments.
    pub fn positional(mut self, name: &'static str, help: &'static str, max: usize) -> Cli {
        self.positional = Some((name, help, max));
        self
    }

    /// The usage message. Every line is generated from the declared
    /// flag/option tables, so the help can never drift from what
    /// [`Self::parse_from`] actually accepts — including the two
    /// spellings (`--name VALUE` and `--name=VALUE`) every valued
    /// option supports.
    pub fn usage(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let positional = match self.positional {
            Some((name, _, _)) => format!(" {name}"),
            None => String::new(),
        };
        // One shared column width keeps the flag and option sections
        // aligned even when an `--option METAVAR` form is the longest.
        let width = self
            .flags
            .iter()
            .map(|(name, _)| name.len())
            .chain(self.options.iter().map(|(name, metavar, _)| name.len() + 1 + metavar.len()))
            .max()
            .unwrap_or(0)
            .max("--help".len())
            .max(12);
        let _ = writeln!(out, "{} — {}", self.name, self.about);
        let _ = writeln!(out, "\nUsage: {} [FLAGS] [OPTIONS]{positional}", self.name);
        let _ = writeln!(out, "\nFlags:");
        let _ = writeln!(out, "  {:<width$} print this message and exit", "--help");
        for (flag, help) in &self.flags {
            let _ = writeln!(out, "  {flag:<width$} {help}");
        }
        if !self.options.is_empty() {
            let _ = writeln!(out, "\nOptions (--name VALUE or --name=VALUE):");
            for (name, metavar, help) in &self.options {
                let _ = writeln!(out, "  {:<width$} {help}", format!("{name} {metavar}"));
            }
        }
        if let Some((name, help, _)) = self.positional {
            let _ = writeln!(out, "\nArguments:\n  {name:<width$} {help}");
        }
        out
    }

    /// Validates an argument list (exclusive of the program name).
    ///
    /// # Errors
    ///
    /// [`CliError`] naming the first undeclared flag or surplus
    /// positional argument.
    pub fn parse_from<I: IntoIterator<Item = String>>(&self, args: I) -> Result<CliArgs, CliError> {
        let mut flags = Vec::new();
        let mut values = Vec::new();
        let mut positionals = Vec::new();
        let max_positionals = self.positional.map_or(0, |(_, _, max)| max);
        let mut args = args.into_iter();
        while let Some(arg) = args.next() {
            if arg.starts_with('-') {
                if self.flags.iter().any(|(name, _)| *name == arg) {
                    flags.push(arg);
                } else if let Some((name, inline)) = self.match_option(&arg) {
                    let value = match inline {
                        Some(v) => v.to_string(),
                        None => match args.next() {
                            Some(v) => v,
                            None => return Err(CliError::MissingValue(name.to_string())),
                        },
                    };
                    // --jobs is the only numeric option so far; reject a
                    // non-positive worker count here rather than letting
                    // the sweep run and fail (or silently fall back).
                    if name == "--jobs" && value.parse::<usize>().map_or(true, |n| n == 0) {
                        return Err(CliError::InvalidValue { option: name.to_string(), value });
                    }
                    values.push((name.to_string(), value));
                } else {
                    return Err(CliError::UnknownFlag(arg));
                }
            } else if positionals.len() < max_positionals {
                positionals.push(arg);
            } else {
                return Err(CliError::UnexpectedPositional(arg));
            }
        }
        Ok(CliArgs { flags, values, positionals })
    }

    /// Matches `arg` against the declared valued options, accepting the
    /// `--name value` and `--name=value` spellings.
    fn match_option<'a>(&self, arg: &'a str) -> Option<(&'static str, Option<&'a str>)> {
        for (name, _, _) in &self.options {
            if arg == *name {
                return Some((name, None));
            }
            if let Some(rest) = arg.strip_prefix(name) {
                if let Some(inline) = rest.strip_prefix('=') {
                    return Some((name, Some(inline)));
                }
            }
        }
        None
    }

    /// Validates the process arguments. Prints usage and exits 0 on
    /// `--help`; prints the offending argument plus usage to stderr and
    /// exits 2 on anything undeclared.
    pub fn parse(&self) -> CliArgs {
        let args: Vec<String> = std::env::args().skip(1).collect();
        if args.iter().any(|a| a == "--help" || a == "-h") {
            print!("{}", self.usage());
            std::process::exit(0);
        }
        match self.parse_from(args) {
            Ok(parsed) => parsed,
            Err(e) => {
                eprint!("error: {e}\n\n{}", self.usage());
                std::process::exit(2);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cli() -> Cli {
        Cli::new("demo", "demonstration binary").flag("--smoke", "reduced cycle counts").positional(
            "TABLE",
            "which table to print",
            1,
        )
    }

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn recognized_flags_and_positionals_parse() {
        let parsed = cli().parse_from(strings(&["--json", "spec", "--smoke"])).unwrap();
        assert!(parsed.has("--json"));
        assert!(parsed.has("--smoke"));
        assert!(!parsed.has("--profile"));
        assert_eq!(parsed.positional(), Some("spec"));
    }

    #[test]
    fn unknown_flags_are_rejected_not_ignored() {
        let err = cli().parse_from(strings(&["--jsno"])).unwrap_err();
        assert_eq!(err, CliError::UnknownFlag("--jsno".into()));
    }

    #[test]
    fn surplus_positionals_are_rejected() {
        let err = cli().parse_from(strings(&["spec", "area"])).unwrap_err();
        assert_eq!(err, CliError::UnexpectedPositional("area".into()));
        let bare = Cli::new("bare", "no positionals");
        let err = bare.parse_from(strings(&["spec"])).unwrap_err();
        assert_eq!(err, CliError::UnexpectedPositional("spec".into()));
    }

    #[test]
    fn usage_names_every_flag() {
        let text = cli().usage();
        assert!(text.contains("--json"));
        assert!(text.contains("--smoke"));
        assert!(text.contains("--help"));
        assert!(text.contains("--jobs N"));
        assert!(text.contains("TABLE"));
        // Valued options document both accepted spellings.
        assert!(text.contains("--name VALUE or --name=VALUE"));
    }

    #[test]
    fn usage_aligns_to_the_longest_declaration() {
        let custom =
            Cli::new("demo", "demo").option("--a-rather-long-option", "VALUE", "help text");
        let text = custom.usage();
        let column = "--a-rather-long-option VALUE".len() + 3;
        for line in text.lines().filter(|l| l.trim_start().starts_with("--")) {
            let head: String = line.chars().take(column).collect();
            assert!(head.ends_with(' '), "column {column} is inside a declaration in {line:?}");
        }
        // Binaries with no extra options omit the section entirely
        // rather than printing an empty header.
        let bare = Cli { options: Vec::new(), ..Cli::new("bare", "no options") };
        assert!(!bare.usage().contains("Options"));
    }

    #[test]
    fn jobs_accepts_both_spellings_and_last_wins() {
        let parsed = cli().parse_from(strings(&["--jobs", "4"])).unwrap();
        assert_eq!(parsed.value("--jobs"), Some("4"));
        assert_eq!(parsed.jobs(), 4);
        let parsed = cli().parse_from(strings(&["--jobs=2"])).unwrap();
        assert_eq!(parsed.jobs(), 2);
        let parsed = cli().parse_from(strings(&["--jobs=2", "--jobs", "8"])).unwrap();
        assert_eq!(parsed.jobs(), 8);
    }

    #[test]
    fn jobs_defaults_to_available_parallelism() {
        let parsed = cli().parse_from(strings(&[])).unwrap();
        assert_eq!(parsed.jobs(), crate::available_jobs());
        assert!(parsed.jobs() >= 1);
    }

    #[test]
    fn jobs_value_is_validated_at_parse_time() {
        assert_eq!(
            cli().parse_from(strings(&["--jobs"])).unwrap_err(),
            CliError::MissingValue("--jobs".into())
        );
        assert_eq!(
            cli().parse_from(strings(&["--jobs", "0"])).unwrap_err(),
            CliError::InvalidValue { option: "--jobs".into(), value: "0".into() }
        );
        assert_eq!(
            cli().parse_from(strings(&["--jobs", "many"])).unwrap_err(),
            CliError::InvalidValue { option: "--jobs".into(), value: "many".into() }
        );
        // The option value may follow other arguments without being
        // mistaken for a positional.
        let parsed = cli().parse_from(strings(&["spec", "--jobs", "3"])).unwrap();
        assert_eq!(parsed.positional(), Some("spec"));
        assert_eq!(parsed.jobs(), 3);
    }

    #[test]
    fn custom_options_parse_like_jobs() {
        let custom = Cli::new("demo", "demo").option("--window", "W", "reservation window");
        let parsed = custom.parse_from(strings(&["--window=500"])).unwrap();
        assert_eq!(parsed.value("--window"), Some("500"));
        assert_eq!(parsed.value("--jobs"), None);
        // A prefix that is not followed by `=` is not an option match.
        assert!(matches!(
            custom.parse_from(strings(&["--windowed"])).unwrap_err(),
            CliError::UnknownFlag(_)
        ));
    }
}
