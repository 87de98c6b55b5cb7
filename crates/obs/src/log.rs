//! Leveled JSONL structured logger.
//!
//! Every line is a single compact JSON object on stderr:
//!
//! ```text
//! {"ts":1723111845.123456,"level":"info","target":"serve","msg":"listening on 127.0.0.1:7411"}
//! ```
//!
//! Filtering: the `PERFVEC_LOG` environment variable picks the maximum
//! emitted level (`off`, `error`, `warn`, `info`, `debug`, `trace`).
//! When unset, the threshold is whatever the binary passed to
//! [`init_default`] — or `warn` if nothing initialised the logger, so
//! library code and tests stay quiet by default.

use std::fmt;
use std::io::Write;
use std::sync::atomic::{AtomicU8, Ordering};

use perfvec_json::{obj, Json};

/// Log severity, most severe first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
pub enum Level {
    Error = 1,
    Warn = 2,
    Info = 3,
    Debug = 4,
    Trace = 5,
}

impl Level {
    pub fn as_str(self) -> &'static str {
        match self {
            Level::Error => "error",
            Level::Warn => "warn",
            Level::Info => "info",
            Level::Debug => "debug",
            Level::Trace => "trace",
        }
    }
}

/// Threshold encoding: 0 = off, 1..=5 = up-to-level, `UNINIT` = lazily
/// resolve from the environment on first use.
const OFF: u8 = 0;
const UNINIT: u8 = u8::MAX;

static THRESHOLD: AtomicU8 = AtomicU8::new(UNINIT);

fn parse_spec(s: &str) -> Option<u8> {
    match s.trim().to_ascii_lowercase().as_str() {
        "off" | "none" | "0" => Some(OFF),
        "error" => Some(Level::Error as u8),
        "warn" | "warning" => Some(Level::Warn as u8),
        "info" => Some(Level::Info as u8),
        "debug" => Some(Level::Debug as u8),
        "trace" => Some(Level::Trace as u8),
        _ => None,
    }
}

fn env_threshold() -> Option<u8> {
    std::env::var("PERFVEC_LOG")
        .ok()
        .and_then(|s| parse_spec(&s))
}

/// Initialise the logger with a default level for when `PERFVEC_LOG`
/// is unset or unparseable. The environment always wins. Binaries that
/// print progress (the bench CLI, the server) call this with
/// [`Level::Info`]; anything that never calls it filters at `warn`.
pub fn init_default(default: Level) {
    let t = env_threshold().unwrap_or(default as u8);
    THRESHOLD.store(t, Ordering::Relaxed);
}

/// Force the threshold, ignoring the environment (tests, tooling).
pub fn set_level(level: Level) {
    THRESHOLD.store(level as u8, Ordering::Relaxed);
}

fn threshold() -> u8 {
    let t = THRESHOLD.load(Ordering::Relaxed);
    if t != UNINIT {
        return t;
    }
    let t = env_threshold().unwrap_or(Level::Warn as u8);
    THRESHOLD.store(t, Ordering::Relaxed);
    t
}

/// Whether a message at `level` would currently be emitted.
#[inline]
pub fn level_enabled(level: Level) -> bool {
    (level as u8) <= threshold()
}

/// Render one JSONL log line (pure; used by [`log`] and by tests).
pub fn format_line(ts: f64, level: Level, target: &str, msg: &str) -> String {
    obj(vec![
        ("ts", Json::Num(ts)),
        ("level", Json::Str(level.as_str().to_string())),
        ("target", Json::Str(target.to_string())),
        ("msg", Json::Str(msg.to_string())),
    ])
    .to_string()
}

/// Emit one structured line to stderr if `level` passes the filter.
/// Called by the `error!`/`warn!`/`info!`/`debug!`/`trace!` macros.
pub fn log(level: Level, target: &str, args: fmt::Arguments<'_>) {
    if !level_enabled(level) {
        return;
    }
    let ts = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs_f64())
        .unwrap_or(0.0);
    let line = format_line(ts, level, target, &args.to_string());
    let mut err = std::io::stderr().lock();
    let _ = writeln!(err, "{line}");
}

/// Log at `error` level: `error!("target", "fmt {}", args)`.
#[macro_export]
macro_rules! error {
    ($target:expr, $($arg:tt)+) => {
        $crate::log::log($crate::log::Level::Error, $target, ::core::format_args!($($arg)+))
    };
}

/// Log at `warn` level.
#[macro_export]
macro_rules! warn {
    ($target:expr, $($arg:tt)+) => {
        $crate::log::log($crate::log::Level::Warn, $target, ::core::format_args!($($arg)+))
    };
}

/// Log at `info` level.
#[macro_export]
macro_rules! info {
    ($target:expr, $($arg:tt)+) => {
        $crate::log::log($crate::log::Level::Info, $target, ::core::format_args!($($arg)+))
    };
}

/// Log at `debug` level.
#[macro_export]
macro_rules! debug {
    ($target:expr, $($arg:tt)+) => {
        $crate::log::log($crate::log::Level::Debug, $target, ::core::format_args!($($arg)+))
    };
}

/// Log at `trace` level.
#[macro_export]
macro_rules! trace {
    ($target:expr, $($arg:tt)+) => {
        $crate::log::log($crate::log::Level::Trace, $target, ::core::format_args!($($arg)+))
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_spec_accepts_all_levels() {
        assert_eq!(parse_spec("off"), Some(OFF));
        assert_eq!(parse_spec("ERROR"), Some(1));
        assert_eq!(parse_spec(" warn "), Some(2));
        assert_eq!(parse_spec("warning"), Some(2));
        assert_eq!(parse_spec("info"), Some(3));
        assert_eq!(parse_spec("debug"), Some(4));
        assert_eq!(parse_spec("trace"), Some(5));
        assert_eq!(parse_spec("verbose"), None);
    }

    #[test]
    fn format_line_is_valid_compact_json() {
        let line = format_line(1234.5, Level::Info, "serve", "hello \"world\"\n");
        let parsed = Json::parse(&line).expect("log line parses");
        let o = parsed.as_obj().expect("object");
        assert_eq!(o[0].0, "ts");
        assert_eq!(o[1], ("level".to_string(), Json::Str("info".into())));
        assert_eq!(o[2], ("target".to_string(), Json::Str("serve".into())));
        assert_eq!(
            o[3],
            ("msg".to_string(), Json::Str("hello \"world\"\n".into()))
        );
        assert!(!line.contains('\n'), "line must be single-line JSONL");
    }

    #[test]
    fn level_ordering() {
        assert!(Level::Error < Level::Warn);
        assert!(Level::Debug < Level::Trace);
    }
}
