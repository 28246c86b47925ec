//! The editable widget grid (§5.3).
//!
//! The generated widgets are laid out in a grid; the user can relabel them, move them, and
//! override the widget type (subject to the widget rules).  The layout is deliberately a plain
//! data structure so that a hosting application can persist or manipulate it.

use pi_core::Interface;
use pi_widgets::WidgetType;

/// The position and presentation of one widget in the grid.
#[derive(Debug, Clone, PartialEq)]
pub struct WidgetPlacement {
    /// Index of the widget in the interface's widget list.
    pub widget: usize,
    /// Grid row (0-based).
    pub row: usize,
    /// Grid column (0-based).
    pub col: usize,
    /// The label shown next to the widget.
    pub label: String,
}

/// An editable grid layout over an interface's widgets.
#[derive(Debug, Clone)]
pub struct EditorLayout {
    placements: Vec<WidgetPlacement>,
    columns: usize,
}

impl EditorLayout {
    /// A default layout: widgets flow row-major into a grid with the given number of columns,
    /// labelled by their generated display labels.
    pub fn new(interface: &Interface, columns: usize) -> Self {
        let columns = columns.max(1);
        let placements = interface
            .widgets()
            .iter()
            .enumerate()
            .map(|(i, w)| WidgetPlacement {
                widget: i,
                row: i / columns,
                col: i % columns,
                label: w.display_label(),
            })
            .collect();
        EditorLayout {
            placements,
            columns,
        }
    }

    /// The grid width.
    pub fn columns(&self) -> usize {
        self.columns
    }

    /// The widget placements, row-major.
    pub fn placements(&self) -> &[WidgetPlacement] {
        &self.placements
    }

    /// Relabels one widget.
    pub fn set_label(&mut self, widget: usize, label: &str) {
        if let Some(p) = self.placements.iter_mut().find(|p| p.widget == widget) {
            p.label = label.to_string();
        }
    }

    /// Moves one widget to a new grid cell (no collision checking — later widgets simply
    /// render after earlier ones in the same cell).
    pub fn move_widget(&mut self, widget: usize, row: usize, col: usize) {
        if let Some(p) = self.placements.iter_mut().find(|p| p.widget == widget) {
            p.row = row;
            p.col = col;
        }
    }

    /// Overrides a widget's type in the interface, provided the new type's rule accepts the
    /// widget's domain (§5.3: the user "can … change the widget type for each widget").
    /// Returns whether the override was applied.
    pub fn override_widget_type(
        interface: &mut Interface,
        widget: usize,
        new_type: WidgetType,
    ) -> bool {
        let Some(w) = interface.widgets_mut().get_mut(widget) else {
            return false;
        };
        if !new_type.accepts(w.domain.shape()) {
            return false;
        }
        w.cost = new_type.default_cost().eval(w.domain.size());
        w.ty = new_type;
        true
    }

    /// Number of grid rows currently used.
    pub fn rows(&self) -> usize {
        self.placements.iter().map(|p| p.row + 1).max().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pi_core::{PiOptions, PrecisionInterfaces};

    fn sample_interface() -> Interface {
        let log = "
            SELECT a FROM t WHERE x = 1 AND c = 'US';
            SELECT a FROM t WHERE x = 5 AND c = 'EU';
            SELECT a FROM t WHERE x = 9 AND c = 'CN';
            SELECT a FROM t WHERE x = 12 AND c = 'BR';
        ";
        PrecisionInterfaces::new(PiOptions::default())
            .from_sql_log(log)
            .unwrap()
            .interface
    }

    #[test]
    fn default_layout_flows_row_major() {
        let iface = sample_interface();
        let layout = EditorLayout::new(&iface, 2);
        assert_eq!(layout.placements().len(), iface.widgets().len());
        assert_eq!(layout.columns(), 2);
        for p in layout.placements() {
            assert_eq!(p.row, p.widget / 2);
            assert_eq!(p.col, p.widget % 2);
            assert!(!p.label.is_empty());
        }
        assert!(layout.rows() >= 1);
    }

    #[test]
    fn labels_and_positions_are_editable() {
        let iface = sample_interface();
        let mut layout = EditorLayout::new(&iface, 3);
        layout.set_label(0, "Threshold");
        layout.move_widget(0, 4, 2);
        let p = &layout.placements()[0];
        assert_eq!(p.label, "Threshold");
        assert_eq!((p.row, p.col), (4, 2));
        assert_eq!(layout.rows(), 5);
    }

    #[test]
    fn type_overrides_respect_widget_rules() {
        let mut iface = sample_interface();
        // Find the numeric widget and switch it to a textbox (always allowed for literals).
        let slider_idx = iface
            .widgets()
            .iter()
            .position(|w| w.ty == WidgetType::Slider)
            .expect("numeric widget");
        assert!(EditorLayout::override_widget_type(
            &mut iface,
            slider_idx,
            WidgetType::Textbox
        ));
        assert_eq!(iface.widgets()[slider_idx].ty, WidgetType::Textbox);
        // A slider cannot be forced onto a string-valued widget.
        let string_idx = iface
            .widgets()
            .iter()
            .position(|w| w.ty != WidgetType::Textbox)
            .expect("string widget");
        assert!(!EditorLayout::override_widget_type(
            &mut iface,
            string_idx,
            WidgetType::Slider
        ));
        // Out-of-range indices are rejected gracefully.
        assert!(!EditorLayout::override_widget_type(
            &mut iface,
            99,
            WidgetType::Textbox
        ));
    }
}
