//! Hand-rolled argument parsing (no external parser dependency).
//!
//! Grammar: `qse <command> [--flag value | --switch]...`. Every flag has
//! a typed accessor with a default; unknown flags are an error so typos
//! fail loudly rather than silently using defaults.

use std::collections::BTreeMap;

/// Parsed command line: a command word plus `--key [value]` pairs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Args {
    /// The subcommand (first positional argument).
    pub command: String,
    flags: BTreeMap<String, Option<String>>,
}

/// A parse or validation failure, with a message for the user.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArgError(pub String);

impl std::fmt::Display for ArgError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for ArgError {}

impl Args {
    /// Parses raw arguments (excluding the program name).
    pub fn parse<I: IntoIterator<Item = String>>(raw: I) -> Result<Args, ArgError> {
        let mut iter = raw.into_iter().peekable();
        let command = iter
            .next()
            .ok_or_else(|| ArgError("missing command; try `qse help`".into()))?;
        if command.starts_with("--") {
            return Err(ArgError(format!(
                "expected a command before flags, got `{command}`"
            )));
        }
        let mut flags = BTreeMap::new();
        while let Some(token) = iter.next() {
            let Some(name) = token.strip_prefix("--") else {
                return Err(ArgError(format!(
                    "unexpected positional argument `{token}`"
                )));
            };
            if name.is_empty() {
                return Err(ArgError("empty flag `--`".into()));
            }
            // A value follows unless the next token is another flag.
            let value = match iter.peek() {
                Some(next) if !next.starts_with("--") => iter.next(),
                _ => None,
            };
            if flags.insert(name.to_string(), value).is_some() {
                return Err(ArgError(format!("flag `--{name}` given twice")));
            }
        }
        Ok(Args { command, flags })
    }

    /// All flag names, for unknown-flag validation.
    pub fn flag_names(&self) -> impl Iterator<Item = &str> {
        self.flags.keys().map(String::as_str)
    }

    /// Rejects any flag not in `allowed`.
    pub fn expect_only(&self, allowed: &[&str]) -> Result<(), ArgError> {
        for name in self.flag_names() {
            if !allowed.contains(&name) {
                return Err(ArgError(format!(
                    "unknown flag `--{name}` for `{}` (allowed: {})",
                    self.command,
                    allowed
                        .iter()
                        .map(|a| format!("--{a}"))
                        .collect::<Vec<_>>()
                        .join(", ")
                )));
            }
        }
        Ok(())
    }

    /// True when the boolean switch is present.
    pub fn switch(&self, name: &str) -> bool {
        self.flags.contains_key(name)
    }

    /// A string flag with a default.
    pub fn string(&self, name: &str, default: &str) -> String {
        match self.flags.get(name) {
            Some(Some(v)) => v.clone(),
            _ => default.to_string(),
        }
    }

    /// A required parsed value.
    pub fn required<T: std::str::FromStr>(&self, name: &str) -> Result<T, ArgError> {
        match self.flags.get(name) {
            Some(Some(v)) => v
                .parse()
                .map_err(|_| ArgError(format!("cannot parse `--{name} {v}`"))),
            Some(None) => Err(ArgError(format!("flag `--{name}` needs a value"))),
            None => Err(ArgError(format!("missing required flag `--{name}`"))),
        }
    }

    /// An optional parsed value with a default.
    pub fn value<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, ArgError> {
        match self.flags.get(name) {
            Some(Some(v)) => v
                .parse()
                .map_err(|_| ArgError(format!("cannot parse `--{name} {v}`"))),
            Some(None) => Err(ArgError(format!("flag `--{name}` needs a value"))),
            None => Ok(default),
        }
    }

    /// An optional parsed value (None when absent).
    pub fn optional<T: std::str::FromStr>(&self, name: &str) -> Result<Option<T>, ArgError> {
        match self.flags.get(name) {
            Some(Some(v)) => v
                .parse()
                .map(Some)
                .map_err(|_| ArgError(format!("cannot parse `--{name} {v}`"))),
            Some(None) => Err(ArgError(format!("flag `--{name}` needs a value"))),
            None => Ok(None),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(tokens: &[&str]) -> Result<Args, ArgError> {
        Args::parse(tokens.iter().map(|s| s.to_string()))
    }

    #[test]
    fn command_and_flags() {
        let a = parse(&["run", "--qubits", "12", "--non-blocking"]).unwrap();
        assert_eq!(a.command, "run");
        assert_eq!(a.required::<u32>("qubits").unwrap(), 12);
        assert!(a.switch("non-blocking"));
        assert!(!a.switch("half-swaps"));
    }

    #[test]
    fn defaults_apply() {
        let a = parse(&["model"]).unwrap();
        assert_eq!(a.value::<u64>("nodes", 64).unwrap(), 64);
        assert_eq!(a.string("circuit", "qft"), "qft");
        assert_eq!(a.optional::<u32>("fuse").unwrap(), None);
    }

    #[test]
    fn missing_command_is_an_error() {
        assert!(parse(&[]).is_err());
        assert!(parse(&["--qubits", "3"]).is_err());
    }

    #[test]
    fn duplicate_flag_rejected() {
        assert!(parse(&["run", "--qubits", "3", "--qubits", "4"]).is_err());
    }

    #[test]
    fn positional_after_command_rejected() {
        assert!(parse(&["run", "12"]).is_err());
    }

    #[test]
    fn missing_required_flag() {
        let a = parse(&["run"]).unwrap();
        let err = a.required::<u32>("qubits").unwrap_err();
        assert!(err.0.contains("--qubits"));
    }

    #[test]
    fn unparsable_value() {
        let a = parse(&["run", "--qubits", "many"]).unwrap();
        assert!(a.required::<u32>("qubits").is_err());
    }

    #[test]
    fn switch_followed_by_flag_takes_no_value() {
        let a = parse(&["run", "--fast", "--qubits", "10"]).unwrap();
        assert!(a.switch("fast"));
        assert_eq!(a.required::<u32>("qubits").unwrap(), 10);
    }

    #[test]
    fn unknown_flags_rejected_by_expect_only() {
        let a = parse(&["run", "--qubitz", "3"]).unwrap();
        let err = a.expect_only(&["qubits", "ranks"]).unwrap_err();
        assert!(err.0.contains("--qubitz"));
        let a = parse(&["run", "--qubits", "3"]).unwrap();
        assert!(a.expect_only(&["qubits"]).is_ok());
    }
}
