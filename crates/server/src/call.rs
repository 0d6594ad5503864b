//! The request context every [`MiscelaService`](crate::MiscelaService)
//! operation takes.
//!
//! A [`Call`] bundles the per-request terms that used to select between
//! method variants (`x`, `x_in`, `x_keyed_in`, `x_cancellable`, …): the
//! tenant namespace, an optional idempotency key, an optional deadline and
//! a cancel token. Each service operation has exactly one method, taking
//! `&Call` first; the router builds one `Call` per request.
//!
//! ```
//! use miscela_server::{Call, MiscelaService};
//!
//! let service = MiscelaService::new();
//! // The default tenant: bare store keys, no name checks.
//! assert!(service.dataset(&Call::default(), "missing").is_err());
//! // A named tenant is validated up front.
//! assert!(Call::tenant("acme").is_ok());
//! assert!(Call::tenant("not a tenant!").is_err());
//! ```

use crate::message::ApiError;
use crate::shard::{scoped_key, validate_tenant, DEFAULT_TENANT};
use miscela_core::CancelToken;
use std::time::Instant;

/// The per-request context of one service operation.
///
/// `Call::default()` addresses the default tenant without validating
/// dataset names, exactly as pre-tenancy callers always did.
/// [`Call::tenant`] addresses a named (validated) tenant, whose dataset
/// names may not contain `/`. The idempotency key, deadline and cancel
/// token are read only by the operations that honor them: mutations replay
/// keyed retries, mines and sweeps honor the deadline and cancel token, a
/// watch parks until the deadline.
#[derive(Debug, Clone, Default)]
pub struct Call {
    /// `None` is the default tenant, unchecked.
    tenant: Option<String>,
    key: Option<String>,
    deadline: Option<Instant>,
    cancel: CancelToken,
}

impl Call {
    /// A call in `tenant`'s namespace. The tenant name must be ASCII
    /// letters, digits, `_` or `-` (a typed 400 otherwise), and every
    /// dataset name the call addresses must not contain `/`, which is
    /// reserved as the tenant/dataset separator in scoped keys.
    pub fn tenant(tenant: &str) -> Result<Call, ApiError> {
        validate_tenant(tenant)?;
        Ok(Call {
            tenant: Some(tenant.to_string()),
            ..Call::default()
        })
    }

    /// Attaches an idempotency key: a retried mutation carrying the same
    /// key replays its original outcome instead of applying twice. `None`
    /// leaves the call unkeyed.
    pub fn with_key(mut self, key: Option<&str>) -> Call {
        self.key = key.map(str::to_string);
        self
    }

    /// Attaches a deadline: a mine or sweep still queued or mining when it
    /// passes fails with a 504, and a watch stops parking at it. `None`
    /// leaves the call without one.
    pub fn with_deadline(mut self, deadline: Option<Instant>) -> Call {
        self.deadline = deadline;
        self
    }

    /// Attaches a cancel token another thread can trip to abort a mine or
    /// sweep.
    pub fn with_cancel(mut self, cancel: CancelToken) -> Call {
        self.cancel = cancel;
        self
    }

    /// The tenant this call addresses.
    pub(crate) fn tenant_name(&self) -> &str {
        self.tenant.as_deref().unwrap_or(DEFAULT_TENANT)
    }

    /// The idempotency key, if any.
    pub(crate) fn key(&self) -> Option<&str> {
        self.key.as_deref()
    }

    /// The deadline, if any.
    pub(crate) fn deadline(&self) -> Option<Instant> {
        self.deadline
    }

    /// The cancel token (never tripped unless one was attached).
    pub(crate) fn cancel(&self) -> &CancelToken {
        &self.cancel
    }

    /// Resolves the dataset `name` in this call's namespace.
    pub(crate) fn scope(&self, name: &str) -> Result<Scope, ApiError> {
        let Some(tenant) = &self.tenant else {
            return Ok(Scope {
                tenant: DEFAULT_TENANT.to_string(),
                name: name.to_string(),
                key: name.to_string(),
            });
        };
        if name.contains('/') {
            return Err(ApiError::BadRequest(format!(
                "dataset name {name:?} is invalid: '/' is reserved for tenant scoping"
            )));
        }
        Ok(Scope {
            tenant: tenant.clone(),
            name: name.to_string(),
            key: scoped_key(tenant, name),
        })
    }
}

/// One dataset as a [`Call`] addresses it: the tenant, the tenant-local
/// name, and the scoped store key the pair maps to. Only
/// [`Call::scope`] builds one, so every internal path sees names that
/// passed the call's checks.
#[derive(Debug, Clone)]
pub(crate) struct Scope {
    pub(crate) tenant: String,
    pub(crate) name: String,
    pub(crate) key: String,
}
