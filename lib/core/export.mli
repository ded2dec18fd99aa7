(** Plot-ready data export.

    [psn experiment] prints figures as text tables; this module writes
    the same series as whitespace-separated [.dat] files plus a gnuplot
    script, so the paper's figures can be rendered graphically:

    {v
    dune exec bin/psn_cli.exe -- ...   (or call these from code)
    gnuplot out/plot_all.gp            -> out/*.png
    v} *)

val write_cdfs :
  dir:string -> name:string -> (string * Psn_stats.Cdf.t) list -> string list
(** One file per labelled CDF ([<name>_<i>.dat], columns [x P[X<=x]]),
    staircase points. Returns the written paths. Creates [dir] if
    needed; raises [Sys_error] on I/O failure. *)

val write_scatter : dir:string -> name:string -> (float * float) list -> string
(** Two-column scatter file; returns the path. *)

val write_gnuplot_script :
  dir:string -> (string * [ `Lines | `Points | `Boxes ] * string list) list -> string
(** [write_gnuplot_script ~dir plots] writes [plot_all.gp]; each entry
    is (output png name, style, data files to overlay). Returns the
    script path. *)
