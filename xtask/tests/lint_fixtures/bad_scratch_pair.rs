// Known-bad: a raw dot_scatter_pair call outside crates/sparse.

pub fn dots(row: RowView<'_>, slots: &[[u64; 4]]) -> [f64; 2] {
    ops::dot_scatter_pair(row, slots)
}
