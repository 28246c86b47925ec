//! Compiling an interface (plus its layout) into a self-contained HTML + JavaScript page.
//!
//! The page renders the widget grid; every interaction substitutes the chosen option's text
//! fragment into the current query at the widget's path and updates the displayed query,
//! mirroring Figure 2b.  Executing the query is delegated to a `window.exec` hook so the page
//! works both standalone (showing the query text) and embedded next to a real backend.
//!
//! Rendering is front-end aware: the initial query and every widget option are rendered
//! through the front-end of the dialect they *originated* in (per-query tags threaded from
//! the mining session), so a mixed SQL + dataframe interface shows each fragment in its own
//! language.  [`compile_html`] uses the workspace's standard registry;
//! [`compile_html_with`] accepts a custom one.

use crate::editor::EditorLayout;
use crate::json::Json;
use pi_ast::Frontends;
use pi_core::Interface;
use pi_widgets::WidgetType;
use std::fmt::Write as _;

/// Compiles the interface into a single HTML document, rendering query fragments through
/// the standard front-end registry (SQL + frames).
pub fn compile_html(interface: &Interface, layout: &EditorLayout, title: &str) -> String {
    compile_html_with(interface, layout, title, &pi_core::standard_frontends())
}

/// Compiles the interface into a single HTML document, rendering the initial query and
/// every widget option through the front-end registered for its originating dialect.
pub fn compile_html_with(
    interface: &Interface,
    layout: &EditorLayout,
    title: &str,
    frontends: &Frontends,
) -> String {
    let spec = interface_spec(interface, layout, frontends);
    let mut widgets_html = String::new();
    for placement in layout.placements() {
        let widget = &interface.widgets()[placement.widget];
        let _ = write!(
            widgets_html,
            "<div class=\"widget\" style=\"grid-row:{};grid-column:{}\" data-widget=\"{}\">\
             <label>{}</label>{}</div>",
            placement.row + 1,
            placement.col + 1,
            placement.widget,
            escape(&placement.label),
            widget_markup(placement.widget, widget)
        );
    }

    format!(
        r#"<!DOCTYPE html>
<html>
<head>
<meta charset="utf-8">
<title>{title}</title>
<style>
body {{ font-family: sans-serif; margin: 1.5em; }}
.grid {{ display: grid; gap: 0.8em; max-width: 720px; }}
.widget {{ border: 1px solid #ccc; border-radius: 6px; padding: 0.6em; }}
.widget label {{ display: block; font-weight: bold; margin-bottom: 0.3em; }}
#query {{ margin-top: 1.2em; padding: 0.8em; background: #f4f4f4; font-family: monospace; white-space: pre-wrap; }}
</style>
</head>
<body>
<h1>{title}</h1>
<div class="grid">{widgets}</div>
<div id="query"></div>
<script>
const SPEC = {spec};
const state = SPEC.widgets.map(() => null);
function currentQuery() {{
  let text = SPEC.initialQuery;
  SPEC.widgets.forEach((w, i) => {{
    const choice = state[i];
    if (choice === null || choice === undefined) return;
    if (choice.absent) {{
      text = text.split(w.currentFragment).join("");
    }} else if (w.currentFragment && choice.text !== undefined) {{
      text = text.split(w.currentFragment).join(choice.text);
    }}
  }});
  return text;
}}
function refresh() {{
  const text = currentQuery();
  document.getElementById("query").textContent = text;
  if (window.exec) {{ window.exec(text); }}
}}
document.querySelectorAll("[data-option]").forEach(el => {{
  el.addEventListener("change", () => {{
    const widget = parseInt(el.closest(".widget").dataset.widget, 10);
    const spec = SPEC.widgets[widget];
    if (el.dataset.freeform) {{
      // Sliders and textboxes carry the *value itself* (a numeric value must not be
      // mistaken for an option index).
      state[widget] = {{ text: el.value }};
    }} else {{
      const idx = parseInt(el.value, 10);
      state[widget] = Number.isInteger(idx) ? spec.options[idx] || null : null;
    }}
    refresh();
  }});
}});
refresh();
</script>
</body>
</html>
"#,
        title = escape(title),
        widgets = widgets_html,
        spec = spec,
    )
}

/// The JSON specification of an interface: the initial query plus, for every widget, its
/// type, path, option fragments and the fragment currently in the initial query.  Option
/// `text` (the splice fragment) is rendered in the initial query's dialect so substitution
/// stays well-formed; option `native` carries the originating dialect's rendering, tagged
/// with the dialect name.
///
/// This is the single serialisation of an interface the workspace has: the HTML compiler
/// embeds it in the generated page's `<script>` block, and `pi-server` serves it verbatim
/// as the `GET /interfaces/{user}/{thread}` response body — so a snapshot fetched over
/// HTTP and a compiled page always agree on what the interface contains.
pub fn interface_spec(interface: &Interface, layout: &EditorLayout, frontends: &Frontends) -> Json {
    let initial_dialect = interface.initial_dialect();
    let widgets = layout
        .placements()
        .iter()
        .map(|placement| {
            let widget = &interface.widgets()[placement.widget];
            // The fragment being substituted out of the initial query is part of the
            // initial query's text, so it renders in the initial query's dialect.
            let current_fragment = interface
                .initial_query()
                .get(&widget.path)
                .map(|subtree| frontends.render(initial_dialect, subtree))
                .unwrap_or_default();
            let options: Vec<Json> = widget
                .domain
                .tagged_subtrees()
                .map(|(subtree, dialect)| {
                    // `text` is spliced into the initial query by currentQuery(), so it
                    // must be in the initial query's dialect — substituting a frames
                    // fragment into SQL text would produce a chimera query no parser
                    // accepts.  For cross-dialect options, `native` additionally shows
                    // the fragment in its originating dialect (what the analyst actually
                    // typed); same-dialect options skip it rather than embed the same
                    // string twice.
                    let mut fields = vec![
                        ("label".into(), Json::string(&subtree.label())),
                        (
                            "text".into(),
                            Json::string(&frontends.render(initial_dialect, subtree)),
                        ),
                        ("dialect".into(), Json::string(dialect.name())),
                    ];
                    if dialect != initial_dialect {
                        fields.insert(
                            2,
                            (
                                "native".into(),
                                Json::string(&frontends.render(dialect, subtree)),
                            ),
                        );
                    }
                    fields.push(("absent".into(), Json::Bool(false)));
                    Json::Object(fields)
                })
                .chain(widget.domain.includes_absent().then(|| {
                    Json::Object(vec![
                        ("label".into(), Json::string("(none)")),
                        ("absent".into(), Json::Bool(true)),
                    ])
                }))
                .collect();
            Json::Object(vec![
                ("label".into(), Json::string(&placement.label)),
                ("type".into(), Json::string(widget.ty.slug())),
                ("path".into(), Json::string(&widget.path.to_string())),
                ("currentFragment".into(), Json::string(&current_fragment)),
                ("options".into(), Json::Array(options)),
            ])
        })
        .collect();
    Json::Object(vec![
        (
            "initialQuery".into(),
            Json::string(&frontends.render(initial_dialect, interface.initial_query())),
        ),
        (
            "initialDialect".into(),
            Json::string(initial_dialect.name()),
        ),
        ("widgets".into(), Json::Array(widgets)),
    ])
}

/// The HTML control for one widget, according to its type.
fn widget_markup(index: usize, widget: &pi_widgets::Widget) -> String {
    let options = widget.domain.option_labels();
    match widget.ty {
        WidgetType::Slider | WidgetType::RangeSlider => {
            let (lo, hi) = widget.domain.numeric_range().unwrap_or((0.0, 100.0));
            format!(
                "<input type=\"range\" min=\"{lo}\" max=\"{hi}\" step=\"any\" data-option=\"w{index}\" data-freeform=\"1\">"
            )
        }
        WidgetType::Textbox => {
            format!("<input type=\"text\" data-option=\"w{index}\" data-freeform=\"1\">")
        }
        WidgetType::ToggleButton | WidgetType::Checkbox => {
            format!("<input type=\"checkbox\" data-option=\"w{index}\">")
        }
        WidgetType::RadioButton | WidgetType::CheckboxList => {
            let input_type = if widget.ty == WidgetType::RadioButton {
                "radio"
            } else {
                "checkbox"
            };
            options
                .iter()
                .enumerate()
                .map(|(i, label)| {
                    format!(
                        "<label><input type=\"{input_type}\" name=\"w{index}\" value=\"{i}\" data-option=\"w{index}\"> {}</label>",
                        escape(label)
                    )
                })
                .collect::<Vec<_>>()
                .join("<br>")
        }
        WidgetType::Dropdown | WidgetType::DragAndDrop => {
            let mut out = format!("<select data-option=\"w{index}\">");
            for (i, label) in options.iter().enumerate() {
                let _ = write!(out, "<option value=\"{i}\">{}</option>", escape(label));
            }
            out.push_str("</select>");
            out
        }
    }
}

fn escape(text: &str) -> String {
    text.replace('&', "&amp;")
        .replace('<', "&lt;")
        .replace('>', "&gt;")
        .replace('"', "&quot;")
}

#[cfg(test)]
mod tests {
    use super::*;
    use pi_core::PrecisionInterfaces;

    fn sample() -> Interface {
        let log = "
            SELECT a FROM t WHERE x = 1 AND c = 'US';
            SELECT a FROM t WHERE x = 5 AND c = 'EU';
            SELECT a FROM t WHERE x = 9 AND c = 'CN';
            SELECT a FROM t WHERE x = 12 AND c = 'BR';
        ";
        PrecisionInterfaces::default()
            .from_sql_log(log)
            .unwrap()
            .interface
    }

    #[test]
    fn compiles_a_complete_page() {
        let iface = sample();
        let layout = EditorLayout::new(&iface, 2);
        let html = compile_html(&iface, &layout, "OnTime explorer");
        assert!(html.starts_with("<!DOCTYPE html>"));
        assert!(html.contains("OnTime explorer"));
        assert!(html.contains("const SPEC ="));
        assert!(html.contains("initialQuery"));
        // every widget appears in the grid
        for (i, _) in iface.widgets().iter().enumerate() {
            assert!(html.contains(&format!("data-widget=\"{i}\"")));
        }
        // a slider renders as a range input, a dropdown as a select
        assert!(html.contains("type=\"range\""));
        assert!(html.contains("<select") || html.contains("type=\"radio\""));
    }

    #[test]
    fn labels_are_escaped() {
        let iface = sample();
        let mut layout = EditorLayout::new(&iface, 1);
        layout.set_label(0, "a <b> & \"c\"");
        let html = compile_html(&iface, &layout, "t");
        assert!(html.contains("a &lt;b&gt; &amp; &quot;c&quot;"));
    }

    #[test]
    fn hostile_string_literal_cannot_break_out_of_the_script_block() {
        // Regression: the interface spec is embedded raw inside <script>.  A SQL string
        // literal containing `</script>` used to terminate the script element and inject
        // markup into the generated page.
        let log = "
            SELECT a FROM t WHERE c = '</script><script>alert(1)//';
            SELECT a FROM t WHERE c = 'EU';
            SELECT a FROM t WHERE c = 'CN';
        ";
        let iface = PrecisionInterfaces::default()
            .from_sql_log(log)
            .unwrap()
            .interface;
        let layout = EditorLayout::new(&iface, 1);
        let html = compile_html(&iface, &layout, "hostile");
        // The hostile fragment must appear nowhere verbatim...
        assert!(!html.contains("</script><script>alert(1)"));
        // ...so the document keeps exactly the one closing tag it was born with.
        assert_eq!(html.matches("</script>").count(), 1);
        // The spec still carries the literal, in escaped form.
        assert!(html.contains("\\u003c/script>"));
    }

    #[test]
    fn spec_embeds_every_option() {
        let iface = sample();
        let layout = EditorLayout::new(&iface, 2);
        let spec = interface_spec(&iface, &layout, &pi_core::standard_frontends()).to_string();
        for widget in iface.widgets() {
            for label in widget.domain.option_labels() {
                if label != "(none)" {
                    assert!(spec.contains(&label), "missing option {label}");
                }
            }
        }
    }

    #[test]
    fn mixed_dialect_interfaces_render_each_option_in_its_own_language() {
        use pi_ast::Dialect;
        use pi_core::{PiOptions, Session};

        // The analyst toggles the subquery shape from both front-ends: the SQL queries
        // contribute tree-valued options that must render as SQL, the frames queries
        // options that must render as method chains.
        let mut session = Session::new(PiOptions::default());
        session.push_stream_tagged([
            (Dialect::SQL, "SELECT * FROM T"),
            (Dialect::FRAMES, "(T.filter(b > 10).select(a)).select(*)"),
            (Dialect::SQL, "SELECT * FROM (SELECT a FROM T WHERE b > 20)"),
            (Dialect::FRAMES, "(T.filter(b > 30).select(a)).select(*)"),
        ]);
        let snap = session.snapshot();
        assert_eq!(snap.dialects.len(), 4);

        let layout = EditorLayout::new(&snap.interface, 1);
        let spec =
            interface_spec(&snap.interface, &layout, &pi_core::standard_frontends()).to_string();
        // The initial query arrived as SQL.
        assert!(spec.contains("\"initialDialect\":\"sql\""), "{spec}");
        assert!(spec.contains("SELECT"), "{spec}");
        // Options exist from both dialects; `native` shows each in its own syntax...
        assert!(spec.contains("\"dialect\":\"sql\""), "{spec}");
        assert!(spec.contains("\"dialect\":\"frames\""), "{spec}");
        assert!(spec.contains(".filter(b > 10)"), "{spec}");
        // ...while the splice fragment `text` stays in the initial query's dialect (SQL
        // here), so substituting it into the page's query never makes a chimera.
        assert!(
            spec.contains("\"text\":\"(SELECT a FROM T WHERE b > 10)\""),
            "{spec}"
        );
        let html = compile_html(&snap.interface, &layout, "mixed");
        assert!(html.contains(".filter(b > 10)"));
    }
}
