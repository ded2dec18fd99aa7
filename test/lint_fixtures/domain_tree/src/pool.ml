(* Two shared mutables. The env function is defined before the task,
   so it has the lower node id and is the root whose witness wins for
   the table both reach. *)
let jobs = ref 0

let seen : (int, unit) Hashtbl.t = Hashtbl.create 8

let scratch () = Hashtbl.length seen

let note k =
  incr jobs;
  Hashtbl.replace seen k ()
