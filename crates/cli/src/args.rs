//! Hand-rolled argument parsing for the `flashcache` CLI — kept
//! dependency-free per the workspace policy.

use std::collections::BTreeMap;

/// A parsed command line: a subcommand plus `--key value` / `--flag`
/// options.
#[derive(Debug, Clone, Default)]
pub struct Args {
    /// The subcommand (first non-flag argument).
    pub command: String,
    options: BTreeMap<String, String>,
    flags: Vec<String>,
}

/// Option keys that take a value; everything else double-dashed is a
/// boolean flag.
const VALUE_KEYS: &[&str] = &[
    "workload",
    "spc",
    "dram-mb",
    "flash-mb",
    "requests",
    "seed",
    "scale",
    "out",
    "sizes-mb",
    "controller",
    "acceleration",
    "budget",
    "write-fraction",
    "json-metrics",
    "shards",
    "batch",
    "workers",
    "channels",
    "planes",
    "queue-depth",
    "admission",
];

impl Args {
    /// Parses an iterator of arguments (excluding the program name).
    ///
    /// # Errors
    ///
    /// Returns a user-facing message for a missing subcommand, an option
    /// missing its value, or an unknown `--option`.
    pub fn parse<I: IntoIterator<Item = String>>(args: I) -> Result<Args, String> {
        let mut out = Args::default();
        let mut iter = args.into_iter();
        let mut positional = Vec::new();
        while let Some(a) = iter.next() {
            if let Some(key) = a.strip_prefix("--") {
                if VALUE_KEYS.contains(&key) {
                    let value = iter
                        .next()
                        .ok_or_else(|| format!("--{key} needs a value"))?;
                    out.options.insert(key.to_string(), value);
                } else if ["unified", "help"].contains(&key) {
                    out.flags.push(key.to_string());
                } else {
                    return Err(format!("unknown option --{key}"));
                }
            } else {
                positional.push(a);
            }
        }
        out.command = positional.first().cloned().unwrap_or_default();
        if positional.len() > 1 {
            return Err(format!("unexpected argument `{}`", positional[1]));
        }
        Ok(out)
    }

    /// A string option.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.options.get(key).map(String::as_str)
    }

    /// A boolean flag.
    pub fn flag(&self, key: &str) -> bool {
        self.flags.iter().any(|f| f == key)
    }

    /// Every option and flag given, without the leading `--`.
    pub fn keys(&self) -> impl Iterator<Item = &str> {
        self.options.keys().chain(&self.flags).map(String::as_str)
    }

    /// A numeric option with a default.
    ///
    /// # Errors
    ///
    /// Returns a user-facing message if the value does not parse.
    pub fn num<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("--{key}: cannot parse `{v}`")),
        }
    }

    /// A comma-separated numeric list with a default.
    ///
    /// # Errors
    ///
    /// Returns a user-facing message if any element does not parse.
    pub fn num_list(&self, key: &str, default: &[u64]) -> Result<Vec<u64>, String> {
        match self.get(key) {
            None => Ok(default.to_vec()),
            Some(v) => v
                .split(',')
                .map(|s| {
                    s.trim()
                        .parse()
                        .map_err(|_| format!("--{key}: cannot parse `{s}`"))
                })
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Result<Args, String> {
        Args::parse(s.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_command_options_and_flags() {
        let a = parse("simulate --workload dbt2 --dram-mb 64 --unified").unwrap();
        assert_eq!(a.command, "simulate");
        assert_eq!(a.get("workload"), Some("dbt2"));
        assert_eq!(a.num("dram-mb", 0u64).unwrap(), 64);
        assert!(a.flag("unified"));
        assert!(!a.flag("help"));
        assert!(parse("simulate --paper").is_err());
    }

    #[test]
    fn defaults_apply_when_absent() {
        let a = parse("sweep").unwrap();
        assert_eq!(a.num("seed", 7u64).unwrap(), 7);
        assert_eq!(a.num_list("sizes-mb", &[1, 2]).unwrap(), vec![1, 2]);
    }

    #[test]
    fn rejects_bad_input() {
        assert!(parse("simulate --dram-mb").is_err());
        assert!(parse("simulate --no-such-option 3").is_err());
        assert!(parse("simulate extra-positional").is_err());
        let a = parse("simulate --dram-mb notanumber").unwrap();
        assert!(a.num("dram-mb", 0u64).is_err());
    }

    #[test]
    fn num_list_parses_csv() {
        let b = parse("sweep --sizes-mb 16,32,64").unwrap();
        assert_eq!(b.num_list("sizes-mb", &[]).unwrap(), vec![16, 32, 64]);
        let bad = parse("sweep --sizes-mb 16,x").unwrap();
        assert!(bad.num_list("sizes-mb", &[]).is_err());
    }
}
