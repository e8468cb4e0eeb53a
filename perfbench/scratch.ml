(* Scratch directories for WAL data, inside the working directory. *)

let rec rm_rf path =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_DIR ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Unix.unlink path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let root = ".perfbench-tmp"

(* Run [f dir] with a fresh directory under [root]. [mkdir] fails on an
   existing directory, so data from an earlier run is never reused; the
   directory is removed afterwards, and [root] too once empty. *)
let with_dir f =
  (try Unix.mkdir root 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let dir =
    Filename.concat root
      (Printf.sprintf "run-%d-%d" (Unix.getpid ()) (Probe.now_ns ()))
  in
  Unix.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
      rm_rf dir;
      try Unix.rmdir root with Unix.Unix_error _ -> ())
    (fun () -> f dir)
