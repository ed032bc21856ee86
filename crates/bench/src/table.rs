//! Minimal aligned-markdown table printing for experiment output.

use sl_sim::ExploreOutcome;

/// The "strongly linearizable" cell of a bounded check: `true` only
/// when the schedule space was exhausted. A PASS over a budget-capped
/// prefix is no verdict, so it reads `partial`; a FAIL stands, because
/// a violation in a prefix-closed subset of the transcript tree is a
/// violation of the whole tree.
pub fn verdict_cell(outcome: &ExploreOutcome, holds: bool) -> String {
    if holds && !outcome.exhausted {
        "partial".to_string()
    } else {
        holds.to_string()
    }
}

/// Prints a markdown table with aligned columns to stdout.
pub fn print_table(headers: &[&str], rows: &[Vec<String>]) {
    let cols = headers.len();
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        assert_eq!(row.len(), cols, "row arity mismatch");
        for (i, cell) in row.iter().enumerate() {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let line = |cells: Vec<String>| {
        let padded: Vec<String> = cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:width$}", c, width = widths[i]))
            .collect();
        println!("| {} |", padded.join(" | "));
    };
    line(headers.iter().map(|h| h.to_string()).collect());
    println!(
        "|{}|",
        widths
            .iter()
            .map(|w| "-".repeat(w + 2))
            .collect::<Vec<_>>()
            .join("|")
    );
    for row in rows {
        line(row.clone());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prints_without_panicking() {
        print_table(
            &["a", "bb"],
            &[vec!["1".into(), "2".into()], vec!["333".into(), "4".into()]],
        );
    }

    #[test]
    #[should_panic(expected = "row arity mismatch")]
    fn rejects_ragged_rows() {
        print_table(&["a"], &[vec!["1".into(), "2".into()]]);
    }
}
