//! The workspace's standard front-end registry.
//!
//! `pi-core` is the only crate that knows every bundled front-end; everything else
//! (sessions, the UI compiler, examples) asks for this registry — or builds its own
//! [`Frontends`] when embedding a custom language.

use pi_ast::Frontends;

/// The bundled front-ends: SQL (`pi-sql`, the default) and the method-chain dataframe
/// dialect (`pi-frames`).
///
/// The default front-end — the first registered — names a session's default dialect
/// ([`Session::default_dialect`](crate::Session::default_dialect)) and is the rendering
/// fallback for unknown dialects.
pub fn standard_frontends() -> Frontends {
    Frontends::new()
        .with(pi_sql::SqlFrontend)
        .with(pi_frames::FramesFrontend)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pi_ast::Dialect;

    #[test]
    fn standard_registry_bundles_sql_and_frames_with_sql_default() {
        let frontends = standard_frontends();
        assert_eq!(frontends.dialects(), vec![Dialect::SQL, Dialect::FRAMES]);
        assert_eq!(frontends.default_dialect(), Some(Dialect::SQL));
        // The two front-ends target the same tree shapes: one analysis, one tree.
        let sql = frontends
            .get(Dialect::SQL)
            .unwrap()
            .parse_one(
                "SELECT COUNT(Delay), DestState FROM ontime WHERE Month = 9 GROUP BY DestState",
            )
            .unwrap();
        let frames = frontends
            .get(Dialect::FRAMES)
            .unwrap()
            .parse_one("ontime.filter(Month == 9).groupby(DestState).agg(COUNT(Delay))")
            .unwrap();
        assert_eq!(sql, frames);
    }
}
