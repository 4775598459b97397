//! Minimal SVG rendering: line plots for the figure harnesses. No
//! dependencies — the output is plain SVG 1.1 text.

use std::fmt::Write as _;

/// A 2-D line plot with multiple named series.
#[derive(Debug, Clone)]
pub struct LinePlot {
    title: String,
    x_label: String,
    y_label: String,
    log_x: bool,
    log_y: bool,
    series: Vec<(String, Vec<(f64, f64)>)>,
}

/// Categorical colors for plot series (dark, print-friendly).
const COLORS: [&str; 6] = [
    "#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#17becf",
];

impl LinePlot {
    /// Creates an empty plot.
    pub fn new(
        title: impl Into<String>,
        x_label: impl Into<String>,
        y_label: impl Into<String>,
    ) -> Self {
        Self {
            title: title.into(),
            x_label: x_label.into(),
            y_label: y_label.into(),
            log_x: false,
            log_y: false,
            series: Vec::new(),
        }
    }

    /// Log-scales the x axis (points with `x ≤ 0` are dropped).
    pub fn with_log_x(mut self) -> Self {
        self.log_x = true;
        self
    }

    /// Log-scales the y axis (points with `y ≤ 0` are dropped).
    pub fn with_log_y(mut self) -> Self {
        self.log_y = true;
        self
    }

    /// Adds a named series.
    pub fn add_series(
        &mut self,
        label: impl Into<String>,
        points: impl IntoIterator<Item = (f64, f64)>,
    ) {
        self.series
            .push((label.into(), points.into_iter().collect()));
    }

    /// Renders the SVG document.
    pub fn to_svg(&self) -> String {
        const W: f64 = 720.0;
        const H: f64 = 480.0;
        const ML: f64 = 70.0; // margins
        const MR: f64 = 20.0;
        const MT: f64 = 40.0;
        const MB: f64 = 55.0;
        let tx = |v: f64| if self.log_x { v.log10() } else { v };
        let ty = |v: f64| if self.log_y { v.log10() } else { v };
        let pts: Vec<(usize, Vec<(f64, f64)>)> = self
            .series
            .iter()
            .enumerate()
            .map(|(k, (_, pts))| {
                (
                    k,
                    pts.iter()
                        .filter(|(x, y)| (!self.log_x || *x > 0.0) && (!self.log_y || *y > 0.0))
                        .map(|&(x, y)| (tx(x), ty(y)))
                        .collect(),
                )
            })
            .collect();
        let all: Vec<(f64, f64)> = pts.iter().flat_map(|(_, p)| p.iter().copied()).collect();
        let (mut x0, mut x1, mut y0, mut y1) = (f64::MAX, f64::MIN, f64::MAX, f64::MIN);
        for &(x, y) in &all {
            x0 = x0.min(x);
            x1 = x1.max(x);
            y0 = y0.min(y);
            y1 = y1.max(y);
        }
        if all.is_empty() {
            x0 = 0.0;
            x1 = 1.0;
            y0 = 0.0;
            y1 = 1.0;
        }
        if (x1 - x0).abs() < 1e-12 {
            x1 = x0 + 1.0;
        }
        if (y1 - y0).abs() < 1e-12 {
            y1 = y0 + 1.0;
        }
        let sx = |x: f64| ML + (x - x0) / (x1 - x0) * (W - ML - MR);
        let sy = |y: f64| H - MB - (y - y0) / (y1 - y0) * (H - MT - MB);

        let mut out = String::new();
        let _ = writeln!(
            out,
            r#"<svg xmlns="http://www.w3.org/2000/svg" width="{W}" height="{H}" viewBox="0 0 {W} {H}">"#
        );
        let _ = writeln!(out, r#"<rect width="{W}" height="{H}" fill="white"/>"#);
        let _ = writeln!(
            out,
            r#"<text x="{}" y="22" font-family="sans-serif" font-size="15" text-anchor="middle">{}</text>"#,
            W / 2.0,
            xml_escape(&self.title)
        );
        // axes
        let _ = writeln!(
            out,
            r#"<line x1="{ML}" y1="{}" x2="{}" y2="{}" stroke="black"/>"#,
            H - MB,
            W - MR,
            H - MB
        );
        let _ = writeln!(
            out,
            r#"<line x1="{ML}" y1="{MT}" x2="{ML}" y2="{}" stroke="black"/>"#,
            H - MB
        );
        // ticks (5 per axis)
        for k in 0..=4 {
            let fx = x0 + (x1 - x0) * k as f64 / 4.0;
            let fy = y0 + (y1 - y0) * k as f64 / 4.0;
            let label_x = fmt_sig(if self.log_x { 10f64.powf(fx) } else { fx });
            let label_y = fmt_sig(if self.log_y { 10f64.powf(fy) } else { fy });
            let _ = writeln!(
                out,
                r#"<text x="{}" y="{}" font-family="sans-serif" font-size="11" text-anchor="middle">{}</text>"#,
                sx(fx),
                H - MB + 18.0,
                label_x
            );
            let _ = writeln!(
                out,
                r#"<text x="{}" y="{}" font-family="sans-serif" font-size="11" text-anchor="end">{}</text>"#,
                ML - 6.0,
                sy(fy) + 4.0,
                label_y
            );
            let _ = writeln!(
                out,
                r##"<line x1="{}" y1="{MT}" x2="{}" y2="{}" stroke="#eeeeee"/>"##,
                sx(fx),
                sx(fx),
                H - MB
            );
        }
        // axis labels
        let _ = writeln!(
            out,
            r#"<text x="{}" y="{}" font-family="sans-serif" font-size="13" text-anchor="middle">{}</text>"#,
            (ML + W - MR) / 2.0,
            H - 12.0,
            xml_escape(&self.x_label)
        );
        let _ = writeln!(
            out,
            r#"<text x="16" y="{}" font-family="sans-serif" font-size="13" text-anchor="middle" transform="rotate(-90 16 {})">{}</text>"#,
            (MT + H - MB) / 2.0,
            (MT + H - MB) / 2.0,
            xml_escape(&self.y_label)
        );
        // series
        for (k, series_pts) in &pts {
            if series_pts.is_empty() {
                continue;
            }
            let color = COLORS[k % COLORS.len()];
            let mut d = String::new();
            for (i, &(x, y)) in series_pts.iter().enumerate() {
                let _ = write!(
                    d,
                    "{}{:.2},{:.2} ",
                    if i == 0 { "M" } else { "L" },
                    sx(x),
                    sy(y)
                );
            }
            let _ = writeln!(
                out,
                r#"<path d="{}" fill="none" stroke="{color}" stroke-width="1.8"/>"#,
                d.trim_end()
            );
            // legend
            let ly = MT + 8.0 + *k as f64 * 18.0;
            let _ = writeln!(
                out,
                r#"<line x1="{}" y1="{ly}" x2="{}" y2="{ly}" stroke="{color}" stroke-width="3"/>"#,
                W - MR - 150.0,
                W - MR - 120.0
            );
            let _ = writeln!(
                out,
                r#"<text x="{}" y="{}" font-family="sans-serif" font-size="12">{}</text>"#,
                W - MR - 112.0,
                ly + 4.0,
                xml_escape(&self.series[*k].0)
            );
        }
        out.push_str("</svg>\n");
        out
    }
}

fn xml_escape(s: &str) -> String {
    s.replace('&', "&amp;")
        .replace('<', "&lt;")
        .replace('>', "&gt;")
}

/// ~3-significant-digit tick label (Rust has no `%g` formatter).
fn fmt_sig(v: f64) -> String {
    // lint:allow(float-eq): exact-zero sentinel (skip empty value), not a tolerance check
    if v == 0.0 {
        return "0".to_string();
    }
    let mag = v.abs().log10().floor() as i32;
    if (-3..=5).contains(&mag) {
        let decimals = (2 - mag).max(0) as usize;
        let s = format!("{v:.decimals$}");
        // trim trailing zeros and a dangling dot
        let s = s.trim_end_matches('0').trim_end_matches('.').to_string();
        if s.is_empty() {
            "0".to_string()
        } else {
            s
        }
    } else {
        format!("{v:.2e}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_plot_contains_series_and_labels() {
        let mut p = LinePlot::new("t & test", "x", "y");
        p.add_series("a", vec![(0.0, 0.0), (1.0, 2.0), (2.0, 1.0)]);
        p.add_series("b", vec![(0.0, 1.0), (2.0, 3.0)]);
        let svg = p.to_svg();
        assert!(svg.starts_with("<svg"));
        assert!(svg.ends_with("</svg>\n"));
        assert_eq!(svg.matches("<path").count(), 2);
        assert!(svg.contains("t &amp; test"));
        assert!(svg.contains(">a</text>"));
    }

    #[test]
    fn log_axes_drop_nonpositive_points() {
        let mut p = LinePlot::new("log", "x", "y").with_log_x().with_log_y();
        p.add_series(
            "s",
            vec![(0.0, 1.0), (1.0, 0.0), (10.0, 100.0), (100.0, 1.0)],
        );
        let svg = p.to_svg();
        // only two valid points survive → one path with one M and one L
        let path_line = svg.lines().find(|l| l.contains("<path")).unwrap();
        assert_eq!(path_line.matches('L').count(), 1);
    }

    #[test]
    fn empty_plot_is_still_valid_svg() {
        let p = LinePlot::new("empty", "x", "y");
        let svg = p.to_svg();
        assert!(svg.contains("</svg>"));
    }
}
