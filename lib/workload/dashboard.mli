(** Trajectory dashboard: renders the BENCH_trajectory.json time
    series into one self-contained HTML file — no external assets, no
    scripts — with a sparkline per row x column, environment- and
    schema-change markers, and regression highlights from the {!Diff}
    comparator ({!Diff.against_history}, as [bench record] uses it).

    Layout: one row of panels per trajectory row, one panel per column
    the row has carried. Each panel is a single-series sparkline (so no
    legend; the panel title names the series), with the latest value
    direct-labeled, native SVG tooltips on every point, dashed
    vertical markers where the recording environment or the trajectory
    schema changed, and a filled marker (plus explanatory tooltip text
    — color never carries the meaning alone) on points the comparator
    flagged against their baseline. Light and dark modes are both
    styled via [prefers-color-scheme]. Surfaced as [bench dashboard]
    and uploaded as a CI artifact. *)

val render : ?title:string -> string list -> string
(** [render lines] builds the HTML document from trajectory snapshot
    lines (as {!Trajectory.read_snapshot_lines} returns them, oldest
    first). An empty list yields a valid page saying so. *)

val write : ?title:string -> path:string -> string list -> unit
(** {!render} to a file. *)
