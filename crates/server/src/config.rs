//! Server configuration with fail-fast validation.

use std::fmt;
use std::time::Duration;

use crate::protocol::DEFAULT_MAX_FRAME_BYTES;

/// A rejected configuration value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigError(String);

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid server config: {}", self.0)
    }
}

impl std::error::Error for ConfigError {}

/// Tunables for a [`crate::Server`].
#[derive(Debug, Clone, PartialEq)]
pub struct ServerConfig {
    /// Bind address (use port 0 to let the OS pick one).
    pub addr: String,
    /// Engine worker threads (`None` = available parallelism).
    pub workers: Option<usize>,
    /// Admission-control capacity: max work items queued before shedding.
    pub max_queue_items: usize,
    /// Coalescing budget: max work items per dispatched batch.
    pub batch_max_items: usize,
    /// Frame payload cap, bytes.
    pub max_frame_bytes: usize,
    /// Default queue-wait deadline applied when a request sets none
    /// (`None` = unbounded wait).
    pub default_deadline: Option<Duration>,
    /// Maximum concurrently open connections; accepts beyond this are
    /// closed immediately (and counted as rejected).
    pub max_connections: usize,
    /// Maximum requests one connection may have in flight; the event loop
    /// stops reading from a connection at this depth until replies drain.
    pub max_pipeline_depth: usize,
    /// Per-connection write-buffer high-water mark, bytes: past it the loop
    /// stops reading from that connection until the peer drains replies.
    pub write_high_water: usize,
    /// Byte budget for resident dataset samples across all datasets.
    pub dataset_max_bytes: u64,
    /// Analog fleet power envelope, watts: tolerance-tagged work is routed
    /// onto the analog fabric only while its modeled draw fits under this
    /// cap. `0.0` disables analog routing entirely (everything digital).
    pub fleet_power_w: f64,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            workers: None,
            max_queue_items: 4096,
            batch_max_items: 1024,
            max_frame_bytes: DEFAULT_MAX_FRAME_BYTES,
            default_deadline: None,
            max_connections: 4096,
            max_pipeline_depth: 128,
            write_high_water: 1 << 20,
            dataset_max_bytes: 1 << 30,
            fleet_power_w: 50.0,
        }
    }
}

impl ServerConfig {
    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// [`ConfigError`] naming the offending field: zero worker count, zero
    /// queue capacity, zero batch budget, or a frame cap too small to carry
    /// a request.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.workers == Some(0) {
            return Err(ConfigError("`workers` must be at least 1".into()));
        }
        if self.max_queue_items == 0 {
            return Err(ConfigError("`max_queue_items` must be at least 1".into()));
        }
        if self.batch_max_items == 0 {
            return Err(ConfigError("`batch_max_items` must be at least 1".into()));
        }
        if self.max_frame_bytes < 64 {
            return Err(ConfigError(
                "`max_frame_bytes` must be at least 64 bytes".into(),
            ));
        }
        if self.max_connections == 0 {
            return Err(ConfigError("`max_connections` must be at least 1".into()));
        }
        if self.max_pipeline_depth == 0 {
            return Err(ConfigError(
                "`max_pipeline_depth` must be at least 1".into(),
            ));
        }
        if self.write_high_water < 4096 {
            return Err(ConfigError(
                "`write_high_water` must be at least 4096 bytes".into(),
            ));
        }
        if !self.fleet_power_w.is_finite() || self.fleet_power_w < 0.0 {
            return Err(ConfigError(
                "`fleet_power_w` must be finite and non-negative".into(),
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_valid() {
        ServerConfig::default().validate().unwrap();
    }

    #[test]
    fn zero_values_are_rejected_with_field_names() {
        type Mutator = fn(&mut ServerConfig);
        let cases: [(Mutator, &str); 9] = [
            (|c| c.workers = Some(0), "workers"),
            (|c| c.max_queue_items = 0, "max_queue_items"),
            (|c| c.batch_max_items = 0, "batch_max_items"),
            (|c| c.max_frame_bytes = 8, "max_frame_bytes"),
            (|c| c.max_connections = 0, "max_connections"),
            (|c| c.max_pipeline_depth = 0, "max_pipeline_depth"),
            (|c| c.write_high_water = 16, "write_high_water"),
            (|c| c.fleet_power_w = -1.0, "fleet_power_w"),
            (|c| c.fleet_power_w = f64::NAN, "fleet_power_w"),
        ];
        for (mutate, field) in cases {
            let mut cfg = ServerConfig::default();
            mutate(&mut cfg);
            let err = cfg.validate().unwrap_err();
            assert!(err.to_string().contains(field), "{err}");
        }
    }
}
