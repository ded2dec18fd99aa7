exception Interrupted of int

(* The pending flag holds the OS signal number (2/15), not OCaml's
   internal Sys.sigint/-term codes, so exit statuses follow the
   128+signal convention exactly. *)
let flag : int option Atomic.t = Atomic.make None

let os_number s = if s = Sys.sigint then 2 else if s = Sys.sigterm then 15 else 0

let handled = [ Sys.sigint; Sys.sigterm ]

let handler s =
  Atomic.set flag (Some (os_number s));
  (* Second signal = die now: the flag-based path is for the first,
     cooperative shutdown only. *)
  Sys.set_signal s Sys.Signal_default

let install () =
  List.iter (fun s -> Sys.set_signal s (Sys.Signal_handle handler)) handled

(* Test hook: restores the process-global signal handlers between tests. *)
let[@lint.allow "dead-export"] uninstall () =
  List.iter (fun s -> Sys.set_signal s Sys.Signal_default) handled;
  Atomic.set flag None

let check () =
  match Atomic.get flag with None -> () | Some n -> raise (Interrupted n)

let exit_code n = 128 + n
