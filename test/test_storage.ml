(* Tests for the storage engine: B+-tree and AVL structural invariants
   (qcheck vs a Map model), diverse backends, database operations and
   transactions, the lock manager, SQL lexer/parser/executor, and the
   state-transfer dump/load path. *)

module Value = Storage.Value
module Schema = Storage.Schema
module Btree = Storage.Btree
module Avl = Storage.Avl
module Store = Storage.Store
module Database = Storage.Database
module Lock = Storage.Lock
module Sql = Storage.Sql_exec

(* ---------- B+-tree ---------- *)

type op = Ins of int * int | Del of int

let gen_ops =
  QCheck.Gen.(
    list_size (0 -- 400)
      (frequency
         [
           (3, map2 (fun k v -> Ins (k mod 97, v)) (int_bound 1000) (int_bound 1000));
           (2, map (fun k -> Del (k mod 97)) (int_bound 1000));
         ]))

let arb_ops =
  QCheck.make
    ~print:(fun ops ->
      String.concat ";"
        (List.map
           (function
             | Ins (k, v) -> Printf.sprintf "i%d=%d" k v
             | Del k -> Printf.sprintf "d%d" k)
           ops))
    gen_ops

module Imap = Map.Make (Int)

let apply_btree ops =
  List.fold_left
    (fun (t, m) -> function
      | Ins (k, v) -> (Btree.insert t k v, Imap.add k v m)
      | Del k -> (Btree.remove t k, Imap.remove k m))
    (Btree.create ~cmp:Int.compare, Imap.empty)
    ops

let prop_btree_model =
  QCheck.Test.make ~name:"btree ≡ Map model" ~count:300 arb_ops (fun ops ->
      let t, m = apply_btree ops in
      Btree.cardinal t = Imap.cardinal m
      && Imap.for_all (fun k v -> Btree.find t k = Some v) m
      && Btree.fold (fun k v acc -> acc && Imap.find_opt k m = Some v) t true)

let prop_btree_invariants =
  QCheck.Test.make ~name:"btree structural invariants" ~count:300 arb_ops
    (fun ops ->
      let t, _ = apply_btree ops in
      match Btree.check t with
      | Ok () -> true
      | Error e -> QCheck.Test.fail_reportf "invariant broken: %s" e)

let prop_btree_iter_sorted =
  QCheck.Test.make ~name:"btree iterates in key order" ~count:200 arb_ops
    (fun ops ->
      let t, _ = apply_btree ops in
      let keys = ref [] in
      Btree.iter (fun k _ -> keys := k :: !keys) t;
      let keys = List.rev !keys in
      List.sort_uniq compare keys = keys)

let test_btree_bulk () =
  (* Large sequential + reverse insertions force deep splits. *)
  let t = ref (Btree.create ~cmp:Int.compare) in
  for i = 0 to 4999 do
    t := Btree.insert !t i (i * 2)
  done;
  for i = 9999 downto 5000 do
    t := Btree.insert !t i (i * 2)
  done;
  Alcotest.(check int) "cardinal" 10_000 (Btree.cardinal !t);
  Alcotest.(check bool) "height logarithmic" true (Btree.height !t <= 6);
  (match Btree.check !t with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  for i = 0 to 9999 do
    if i mod 3 <> 0 then t := Btree.remove !t i
  done;
  (match Btree.check !t with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  Alcotest.(check int) "cardinal after deletes" 3334 (Btree.cardinal !t);
  Alcotest.(check (option int)) "survivor" (Some 18) (Btree.find !t 9)

let test_btree_range () =
  let t = ref (Btree.create ~cmp:Int.compare) in
  for i = 0 to 99 do
    t := Btree.insert !t i i
  done;
  let got = ref [] in
  Btree.iter_range ~lo:(Some 10) ~hi:(Some 20) (fun k _ -> got := k :: !got) !t;
  Alcotest.(check (list int)) "inclusive range"
    (List.init 11 (fun i -> 10 + i))
    (List.rev !got);
  let got = ref [] in
  Btree.iter_range ~lo:None ~hi:(Some 2) (fun k _ -> got := k :: !got) !t;
  Alcotest.(check (list int)) "open low" [ 0; 1; 2 ] (List.rev !got)

let test_btree_minmax () =
  let t =
    List.fold_left
      (fun t k -> Btree.insert t k (k * 10))
      (Btree.create ~cmp:Int.compare)
      [ 5; 1; 9; 3 ]
  in
  Alcotest.(check (option (pair int int))) "min" (Some (1, 10)) (Btree.min_binding t);
  Alcotest.(check (option (pair int int))) "max" (Some (9, 90)) (Btree.max_binding t);
  Alcotest.(check (option (pair int int))) "empty min" None
    (Btree.min_binding (Btree.create ~cmp:Int.compare))

(* ---------- AVL ---------- *)

let apply_avl ops =
  List.fold_left
    (fun (t, m) -> function
      | Ins (k, v) -> (Avl.insert t k v, Imap.add k v m)
      | Del k -> (Avl.remove t k, Imap.remove k m))
    (Avl.create ~cmp:Int.compare, Imap.empty)
    ops

let prop_avl_model =
  QCheck.Test.make ~name:"avl ≡ Map model" ~count:300 arb_ops (fun ops ->
      let t, m = apply_avl ops in
      Avl.cardinal t = Imap.cardinal m
      && Imap.for_all (fun k v -> Avl.find t k = Some v) m)

let prop_avl_balanced =
  QCheck.Test.make ~name:"avl stays balanced and ordered" ~count:300 arb_ops
    (fun ops ->
      let t, _ = apply_avl ops in
      match Avl.check t with
      | Ok () -> true
      | Error e -> QCheck.Test.fail_reportf "avl: %s" e)

(* ---------- Backends behave identically ---------- *)

let prop_backends_agree =
  QCheck.Test.make ~name:"hazel/hickory/dogwood agree" ~count:150 arb_ops
    (fun ops ->
      let run kind =
        let s = Store.create kind in
        List.iter
          (function
            | Ins (k, v) ->
                s.Store.insert [ Value.Int k ] [| Value.Int k; Value.Int v |]
            | Del k -> ignore (s.Store.delete [ Value.Int k ]))
          ops;
        let out = ref [] in
        s.Store.iter_sorted (fun key row -> out := (key, row) :: !out);
        (s.Store.count (), List.rev !out)
      in
      let h = run Store.Hazel in
      let b = run Store.Hickory in
      let a = run Store.Dogwood in
      h = b && b = a)

(* ---------- Database ---------- *)

let bank_schema =
  Schema.v ~table:"T"
    ~columns:[ ("ID", Value.T_int); ("V", Value.T_int) ]
    ~pkey:[ "ID" ]

let mk_db () =
  let db = Database.create Store.Hazel in
  (match Database.create_table db bank_schema with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  db

let test_db_insert_get () =
  let db = mk_db () in
  Alcotest.(check (result unit string)) "insert"
    (Ok ())
    (Database.insert db "T" [| Value.Int 1; Value.Int 10 |]);
  Alcotest.(check bool) "dup key rejected" true
    (Result.is_error (Database.insert db "T" [| Value.Int 1; Value.Int 99 |]));
  match Database.get db "T" [ Value.Int 1 ] with
  | Some row -> Alcotest.(check bool) "value" true (row.(1) = Value.Int 10)
  | None -> Alcotest.fail "row missing"

let test_db_schema_checks () =
  let db = mk_db () in
  Alcotest.(check bool) "arity" true
    (Result.is_error (Database.insert db "T" [| Value.Int 1 |]));
  Alcotest.(check bool) "type" true
    (Result.is_error (Database.insert db "T" [| Value.Text "x"; Value.Int 0 |]));
  Alcotest.(check bool) "null pk" true
    (Result.is_error (Database.insert db "T" [| Value.Null; Value.Int 0 |]));
  Alcotest.(check bool) "unknown table" true
    (Result.is_error (Database.insert db "NOPE" [| Value.Int 1; Value.Int 2 |]))

let test_db_update_delete () =
  let db = mk_db () in
  ignore (Database.insert db "T" [| Value.Int 1; Value.Int 10 |]);
  (match
     Database.update db "T" [ Value.Int 1 ] (fun r ->
         r.(1) <- Value.Int 20;
         r)
   with
  | Ok true -> ()
  | _ -> Alcotest.fail "update failed");
  Alcotest.(check bool) "pk change rejected" true
    (Result.is_error
       (Database.update db "T" [ Value.Int 1 ] (fun r ->
            r.(0) <- Value.Int 9;
            r)));
  Alcotest.(check (result bool string)) "delete" (Ok true)
    (Database.delete db "T" [ Value.Int 1 ]);
  Alcotest.(check (result bool string)) "delete absent" (Ok false)
    (Database.delete db "T" [ Value.Int 1 ])

let test_db_rollback () =
  let db = mk_db () in
  ignore (Database.insert db "T" [| Value.Int 1; Value.Int 10 |]);
  Database.begin_txn db;
  ignore (Database.insert db "T" [| Value.Int 2; Value.Int 20 |]);
  ignore
    (Database.update db "T" [ Value.Int 1 ] (fun r ->
         r.(1) <- Value.Int 99;
         r));
  ignore (Database.delete db "T" [ Value.Int 1 ]);
  Database.rollback db;
  Alcotest.(check int) "row count restored" 1 (Database.row_count db "T");
  match Database.get db "T" [ Value.Int 1 ] with
  | Some row -> Alcotest.(check bool) "value restored" true (row.(1) = Value.Int 10)
  | None -> Alcotest.fail "row 1 lost by rollback"

let prop_rollback_restores_hash =
  QCheck.Test.make ~name:"rollback restores content hash" ~count:150
    QCheck.(list_of_size Gen.(0 -- 30) (pair (int_bound 20) (int_bound 100)))
    (fun kvs ->
      let db = mk_db () in
      for i = 0 to 9 do
        ignore (Database.insert db "T" [| Value.Int i; Value.Int i |])
      done;
      let before = Database.content_hash db in
      Database.begin_txn db;
      List.iter
        (fun (k, v) ->
          ignore (Database.upsert db "T" [| Value.Int k; Value.Int v |]);
          if v mod 3 = 0 then ignore (Database.delete db "T" [ Value.Int k ]))
        kvs;
      Database.rollback db;
      Database.content_hash db = before)

let test_db_dump_load_roundtrip () =
  let src = Database.create Store.Hickory in
  ignore (Database.create_table src bank_schema);
  for i = 0 to 99 do
    ignore (Database.insert src "T" [| Value.Int i; Value.Int (i * i) |])
  done;
  let dst = Database.create Store.Dogwood in
  ignore (Database.create_table dst bank_schema);
  (* Pre-populate with junk that the snapshot must not resurrect. *)
  ignore (Database.insert dst "T" [| Value.Int 500; Value.Int 1 |]);
  Database.clear_data dst;
  (match Database.load_rows dst (Database.dump src) with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  Alcotest.(check int) "row count" 100 (Database.row_count dst "T");
  Alcotest.(check int) "content hash equal across backends"
    (Database.content_hash src) (Database.content_hash dst)

(* TPC-C's CUSTOMER has 21 columns and ORDER_LINE 10, more values than a
   polymorphic [Hashtbl.hash] of the whole row inspects. A change to any
   one column, the last included, must still change the fingerprint. *)
let wide_schema =
  Schema.v ~table:"W"
    ~columns:
      (("ID", Value.T_int)
      :: List.init 20 (fun i ->
             (Printf.sprintf "C%d" i, if i < 8 then Value.T_text else Value.T_int)))
    ~pkey:[ "ID" ]

let wide_row id =
  Array.init 21 (fun i ->
      if i = 0 then Value.Int id
      else if i <= 8 then Value.Text (Printf.sprintf "text-%d" i)
      else Value.Int i)

let test_db_hash_wide_rows () =
  let hash_of rows =
    let db = Database.create Store.Hazel in
    ignore (Database.create_table db wide_schema);
    List.iter (fun r -> ignore (Database.insert db "W" r)) rows;
    Database.content_hash db
  in
  let base = hash_of [ wide_row 1; wide_row 2 ] in
  for c = 1 to 20 do
    let r = wide_row 2 in
    r.(c) <- (match r.(c) with Value.Text _ -> Value.Text "x" | _ -> Value.Int (-1));
    Alcotest.(check bool)
      (Printf.sprintf "column %d changes the hash" c)
      true
      (hash_of [ wide_row 1; r ] <> base)
  done

(* A random history of every kind of write, replayed on each backend: the
   maintained fingerprint must equal the fingerprint of a fresh database
   reloaded from the dump, and must be the same on all three backends. *)
type dop =
  | D_insert of bool * int * int  (* wide table?, key, value *)
  | D_upsert of bool * int * int
  | D_update of bool * int * int * int  (* ..., column, value *)
  | D_delete of bool * int
  | D_scan_update of bool * int * int  (* ..., key modulus, value *)
  | D_scan_delete of bool * int
  | D_begin
  | D_commit
  | D_rollback
  | D_clear
  | D_recreate of bool
  | D_index of bool * int

let show_dop = function
  | D_insert (w, k, v) -> Printf.sprintf "ins(%b,%d,%d)" w k v
  | D_upsert (w, k, v) -> Printf.sprintf "ups(%b,%d,%d)" w k v
  | D_update (w, k, c, v) -> Printf.sprintf "upd(%b,%d,%d,%d)" w k c v
  | D_delete (w, k) -> Printf.sprintf "del(%b,%d)" w k
  | D_scan_update (w, m, v) -> Printf.sprintf "supd(%b,%d,%d)" w m v
  | D_scan_delete (w, m) -> Printf.sprintf "sdel(%b,%d)" w m
  | D_begin -> "begin"
  | D_commit -> "commit"
  | D_rollback -> "rollback"
  | D_clear -> "clear"
  | D_recreate w -> Printf.sprintf "recreate(%b)" w
  | D_index (w, c) -> Printf.sprintf "index(%b,%d)" w c

let gen_dops =
  QCheck.Gen.(
    let key = int_bound 15 and v = int_bound 50 in
    list_size (0 -- 80)
      (frequency
         [
           (6, map3 (fun w k v -> D_insert (w, k, v)) bool key v);
           (4, map3 (fun w k v -> D_upsert (w, k, v)) bool key v);
           ( 4,
             map3
               (fun (w, k) c v -> D_update (w, k, c, v))
               (pair bool key) (1 -- 20) v );
           (2, map2 (fun w k -> D_delete (w, k)) bool key);
           (1, map3 (fun w m v -> D_scan_update (w, m, v)) bool (1 -- 4) v);
           (1, map2 (fun w m -> D_scan_delete (w, m)) bool (2 -- 5));
           (2, return D_begin);
           (1, return D_commit);
           (1, return D_rollback);
           (1, return D_clear);
           (1, map (fun w -> D_recreate w) bool);
           (1, map2 (fun w c -> D_index (w, c)) bool (1 -- 20));
         ]))

let schema_of wide = if wide then wide_schema else bank_schema
let table_of wide = if wide then "W" else "T"

(* A value of the column's type: the narrow table has one int column. *)
let cell wide c v =
  if v mod 11 = 0 then Value.Null
  else if wide && c <= 8 then Value.Text (string_of_int v)
  else Value.Int v

let row_of wide k v =
  if wide then Array.init 21 (fun c -> if c = 0 then Value.Int k else cell wide c (v + c))
  else [| Value.Int k; cell wide 1 v |]

let key_divisible m r =
  match r.(0) with Value.Int k -> k mod m = 0 | _ -> false

let apply_dop db op =
  let key k = [ Value.Int k ] in
  let set c v r =
    r.(c) <- v;
    r
  in
  match op with
  | D_insert (w, k, v) -> ignore (Database.insert db (table_of w) (row_of w k v))
  | D_upsert (w, k, v) -> ignore (Database.upsert db (table_of w) (row_of w k v))
  | D_update (w, k, c, v) ->
      let c = if w then c else 1 in
      ignore (Database.update db (table_of w) (key k) (set c (cell w c v)))
  | D_delete (w, k) -> ignore (Database.delete db (table_of w) (key k))
  | D_scan_update (w, m, v) ->
      let c = Schema.arity (schema_of w) - 1 in
      ignore
        (Database.scan_update db (table_of w) ~pred:(key_divisible m)
           ~f:(set c (Value.Int v)))
  | D_scan_delete (w, m) ->
      ignore (Database.scan_delete db (table_of w) ~pred:(key_divisible m))
  | D_begin -> if not (Database.in_txn db) then Database.begin_txn db
  | D_commit -> Database.commit db
  | D_rollback -> Database.rollback db
  | D_clear -> Database.clear_data db
  | D_recreate w ->
      ignore (Database.drop_table db (table_of w));
      ignore (Database.create_table db (schema_of w))
  | D_index (w, c) ->
      let s = schema_of w in
      let c = min c (Schema.arity s - 1) in
      ignore
        (Database.create_index db (table_of w)
           (List.nth s.Schema.columns c).Schema.name)

let reloaded db =
  let fresh = Database.create Store.Hazel in
  List.iter
    (fun name ->
      match Database.schema db name with
      | Some s -> ignore (Database.create_table fresh s)
      | None -> ())
    (Database.tables db);
  (match Database.load_rows fresh (Database.dump db) with
  | Ok () -> ()
  | Error e -> QCheck.Test.fail_reportf "reload: %s" e);
  fresh

let prop_hash_matches_reload =
  QCheck.Test.make ~name:"maintained hash = reloaded hash on every backend"
    ~count:200
    (QCheck.make
       ~print:(fun ops -> String.concat ";" (List.map show_dop ops))
       gen_dops)
    (fun ops ->
      let run kind =
        let db = Database.create kind in
        ignore (Database.create_table db bank_schema);
        ignore (Database.create_table db wide_schema);
        List.iter (apply_dop db) ops;
        let h = Database.content_hash db in
        let r = Database.content_hash (reloaded db) in
        if h <> r then
          QCheck.Test.fail_reportf "%s: maintained %d, reloaded %d"
            (Store.kind_name kind) h r;
        h
      in
      let h = run Store.Hazel in
      h = run Store.Hickory && h = run Store.Dogwood)

let test_db_cost_accounting () =
  let db = mk_db () in
  ignore (Database.take_cost db);
  ignore (Database.insert db "T" [| Value.Int 1; Value.Int 1 |]);
  let c1 = Database.take_cost db in
  Alcotest.(check bool) "write charged" true (c1 > 0.0);
  Alcotest.(check (float 0.0)) "reset" 0.0 (Database.take_cost db);
  ignore (Database.get db "T" [ Value.Int 1 ]);
  let c2 = Database.take_cost db in
  Alcotest.(check bool) "read cheaper than write" true (c2 < c1)

(* ---------- Secondary indexes ---------- *)

let people_schema =
  Schema.v ~table:"P"
    ~columns:[ ("ID", Value.T_int); ("CITY", Value.T_text); ("AGE", Value.T_int) ]
    ~pkey:[ "ID" ]

let mk_people () =
  let db = Database.create Store.Hazel in
  (match Database.create_table db people_schema with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  let cities = [| "oslo"; "bern"; "oslo"; "kyiv"; "bern"; "oslo" |] in
  Array.iteri
    (fun i city ->
      ignore
        (Database.insert db "P"
           [| Value.Int i; Value.Text city; Value.Int (20 + i) |]))
    cities;
  db

let rows_sorted rows = List.sort compare rows

let test_index_lookup () =
  let db = mk_people () in
  (match Database.create_index db "P" "CITY" with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  match Database.lookup_eq db "P" ~column:"CITY" ~value:(Value.Text "oslo") with
  | Ok rows ->
      Alcotest.(check int) "three oslo rows" 3 (List.length rows);
      Alcotest.(check bool) "all oslo" true
        (List.for_all (fun r -> r.(1) = Value.Text "oslo") rows)
  | Error e -> Alcotest.fail e

let test_index_maintained_by_writes () =
  let db = mk_people () in
  ignore (Database.create_index db "P" "CITY");
  ignore
    (Database.update db "P" [ Value.Int 0 ] (fun r ->
         r.(1) <- Value.Text "kyiv";
         r));
  ignore (Database.delete db "P" [ Value.Int 3 ]);
  ignore (Database.insert db "P" [| Value.Int 9; Value.Text "kyiv"; Value.Int 50 |]);
  let lookup city =
    match Database.lookup_eq db "P" ~column:"CITY" ~value:(Value.Text city) with
    | Ok rows -> List.length rows
    | Error e -> Alcotest.fail e
  in
  Alcotest.(check int) "oslo shrank" 2 (lookup "oslo");
  Alcotest.(check int) "kyiv = update + insert - delete" 2 (lookup "kyiv")

let test_index_maintained_by_rollback () =
  let db = mk_people () in
  ignore (Database.create_index db "P" "CITY");
  let before =
    match Database.lookup_eq db "P" ~column:"CITY" ~value:(Value.Text "bern") with
    | Ok rows -> rows_sorted rows
    | Error e -> Alcotest.fail e
  in
  Database.begin_txn db;
  ignore
    (Database.update db "P" [ Value.Int 1 ] (fun r ->
         r.(1) <- Value.Text "rome";
         r));
  ignore (Database.delete db "P" [ Value.Int 4 ]);
  ignore (Database.insert db "P" [| Value.Int 7; Value.Text "bern"; Value.Int 1 |]);
  Database.rollback db;
  (match Database.lookup_eq db "P" ~column:"CITY" ~value:(Value.Text "bern") with
  | Ok rows -> Alcotest.(check bool) "index restored" true (rows_sorted rows = before)
  | Error e -> Alcotest.fail e);
  match Database.lookup_eq db "P" ~column:"CITY" ~value:(Value.Text "rome") with
  | Ok rows -> Alcotest.(check int) "phantom gone" 0 (List.length rows)
  | Error e -> Alcotest.fail e

let prop_index_agrees_with_scan =
  QCheck.Test.make ~name:"index lookup ≡ filtered scan" ~count:150
    QCheck.(list_of_size Gen.(0 -- 60) (pair (int_bound 30) (int_bound 5)))
    (fun kvs ->
      let db = Database.create Store.Hickory in
      ignore (Database.create_table db people_schema);
      ignore (Database.create_index db "P" "AGE");
      List.iter
        (fun (id, age) ->
          match Database.upsert db "P" [| Value.Int id; Value.Text "x"; Value.Int age |] with
          | Ok () | Error _ -> ())
        kvs;
      List.for_all
        (fun age ->
          let via_index =
            match
              Database.lookup_eq db "P" ~column:"AGE" ~value:(Value.Int age)
            with
            | Ok rows -> rows_sorted rows
            | Error _ -> []
          in
          let via_scan =
            match Database.scan db "P" ~pred:(fun r -> r.(2) = Value.Int age) with
            | Ok rows -> rows_sorted rows
            | Error _ -> []
          in
          via_index = via_scan)
        [ 0; 1; 2; 3; 4; 5 ])

(* ---------- Lock manager ---------- *)

let test_lock_table_level () =
  let l = Lock.create Lock.Table_level in
  Alcotest.(check bool) "t1 granted" true
    (Lock.acquire l ~txn:1 ~table:"A" ~key:(Some [ Value.Int 1 ]) = `Granted);
  Alcotest.(check bool) "t2 queued on other row (table lock)" true
    (Lock.acquire l ~txn:2 ~table:"A" ~key:(Some [ Value.Int 2 ]) = `Queued);
  Alcotest.(check (list int)) "t2 granted on release" [ 2 ]
    (Lock.release_all l ~txn:1)

let test_lock_row_level () =
  let l = Lock.create Lock.Row_level in
  Alcotest.(check bool) "t1 row1" true
    (Lock.acquire l ~txn:1 ~table:"A" ~key:(Some [ Value.Int 1 ]) = `Granted);
  Alcotest.(check bool) "t2 row2 independent" true
    (Lock.acquire l ~txn:2 ~table:"A" ~key:(Some [ Value.Int 2 ]) = `Granted);
  Alcotest.(check bool) "t3 row1 queued" true
    (Lock.acquire l ~txn:3 ~table:"A" ~key:(Some [ Value.Int 1 ]) = `Queued)

let test_lock_fifo_and_reentrant () =
  let l = Lock.create Lock.Table_level in
  ignore (Lock.acquire l ~txn:1 ~table:"A" ~key:None);
  Alcotest.(check bool) "reentrant" true
    (Lock.acquire l ~txn:1 ~table:"A" ~key:None = `Granted);
  ignore (Lock.acquire l ~txn:2 ~table:"A" ~key:None);
  ignore (Lock.acquire l ~txn:3 ~table:"A" ~key:None);
  Alcotest.(check (list int)) "fifo grant" [ 2 ] (Lock.release_all l ~txn:1);
  Alcotest.(check (list int)) "next in line" [ 3 ] (Lock.release_all l ~txn:2)

let test_lock_cancel () =
  let l = Lock.create Lock.Table_level in
  ignore (Lock.acquire l ~txn:1 ~table:"A" ~key:None);
  ignore (Lock.acquire l ~txn:2 ~table:"A" ~key:None);
  Lock.cancel l ~txn:2;
  Alcotest.(check (list int)) "cancelled waiter skipped" []
    (Lock.release_all l ~txn:1)

(* ---------- SQL ---------- *)

let exec_ok db sql =
  match Sql.exec_sql db sql with
  | Ok r -> r
  | Error e -> Alcotest.fail (sql ^ " -> " ^ e)

let test_sql_end_to_end () =
  let db = Database.create Store.Hazel in
  ignore
    (exec_ok db
       "CREATE TABLE accounts (id INT, owner TEXT, balance INT, PRIMARY KEY (id))");
  ignore
    (exec_ok db
       "INSERT INTO accounts VALUES (1, 'ada', 100), (2, 'bob', 50), (3, 'cy', 7)");
  (match exec_ok db "SELECT balance FROM accounts WHERE id = 2" with
  | Sql.Rows { rows = [ [| Value.Int 50 |] ]; _ } -> ()
  | _ -> Alcotest.fail "point select");
  (match exec_ok db "UPDATE accounts SET balance = balance + 10 WHERE id = 2" with
  | Sql.Affected 1 -> ()
  | _ -> Alcotest.fail "update");
  (match
     exec_ok db "SELECT owner FROM accounts WHERE balance >= 60 ORDER BY owner DESC"
   with
  | Sql.Rows { rows = [ [| Value.Text "bob" |]; [| Value.Text "ada" |] ]; _ } -> ()
  | _ -> Alcotest.fail "scan + order");
  (match exec_ok db "DELETE FROM accounts WHERE balance < 10" with
  | Sql.Affected 1 -> ()
  | _ -> Alcotest.fail "delete");
  match exec_ok db "SELECT * FROM accounts" with
  | Sql.Rows { rows; _ } -> Alcotest.(check int) "two rows left" 2 (List.length rows)
  | _ -> Alcotest.fail "select star"

let test_sql_txn_stmts () =
  let db = Database.create Store.Hazel in
  ignore (exec_ok db "CREATE TABLE t (id INT, v INT)");
  ignore (exec_ok db "BEGIN");
  ignore (exec_ok db "INSERT INTO t VALUES (1, 1)");
  ignore (exec_ok db "ROLLBACK");
  Alcotest.(check int) "rolled back" 0 (Database.row_count db "T");
  ignore (exec_ok db "BEGIN");
  ignore (exec_ok db "INSERT INTO t VALUES (1, 1)");
  ignore (exec_ok db "COMMIT");
  Alcotest.(check int) "committed" 1 (Database.row_count db "T")

let test_sql_errors () =
  let db = Database.create Store.Hazel in
  Alcotest.(check bool) "unknown table" true
    (Result.is_error (Sql.exec_sql db "SELECT * FROM nope"));
  Alcotest.(check bool) "parse error" true
    (Result.is_error (Sql.exec_sql db "SELEC * FROM t"));
  Alcotest.(check bool) "unterminated string" true
    (Result.is_error (Sql.exec_sql db "SELECT * FROM t WHERE a = 'oops"));
  ignore (exec_ok db "CREATE TABLE t (id INT, v INT)");
  Alcotest.(check bool) "unknown column" true
    (Result.is_error (Sql.exec_sql db "SELECT nope FROM t"))

let test_sql_limit_and_star_order () =
  let db = Database.create Store.Hazel in
  ignore (exec_ok db "CREATE TABLE t (id INT, v INT)");
  for i = 1 to 10 do
    ignore (exec_ok db (Printf.sprintf "INSERT INTO t VALUES (%d, %d)" i (100 - i)))
  done;
  match exec_ok db "SELECT id FROM t ORDER BY v ASC LIMIT 3" with
  | Sql.Rows { rows; _ } ->
      Alcotest.(check int) "limited" 3 (List.length rows);
      (match rows with
      | [| Value.Int first |] :: _ -> Alcotest.(check int) "smallest v first" 10 first
      | _ -> Alcotest.fail "unexpected shape")
  | _ -> Alcotest.fail "select"

let test_sql_aggregates () =
  let db = Database.create Store.Hazel in
  ignore (exec_ok db "CREATE TABLE t (id INT, v INT, w FLOAT)");
  for i = 1 to 10 do
    ignore
      (exec_ok db
         (Printf.sprintf "INSERT INTO t VALUES (%d, %d, %d.5)" i (i * 10) i))
  done;
  (match exec_ok db "SELECT COUNT(*), SUM(v), MIN(v), MAX(v), AVG(v) FROM t" with
  | Sql.Rows { rows = [ [| Value.Int 10; Value.Int 550; Value.Int 10; Value.Int 100; Value.Float avg |] ]; _ } ->
      Alcotest.(check (float 1e-9)) "avg" 55.0 avg
  | _ -> Alcotest.fail "aggregate row shape");
  match exec_ok db "SELECT COUNT(*) FROM t WHERE v > 50" with
  | Sql.Rows { rows = [ [| Value.Int 5 |] ]; _ } -> ()
  | _ -> Alcotest.fail "filtered count"

let test_sql_between_in () =
  let db = Database.create Store.Hazel in
  ignore (exec_ok db "CREATE TABLE t (id INT, v INT)");
  for i = 1 to 10 do
    ignore (exec_ok db (Printf.sprintf "INSERT INTO t VALUES (%d, %d)" i i))
  done;
  (match exec_ok db "SELECT COUNT(*) FROM t WHERE v BETWEEN 3 AND 6" with
  | Sql.Rows { rows = [ [| Value.Int 4 |] ]; _ } -> ()
  | _ -> Alcotest.fail "between");
  match exec_ok db "SELECT COUNT(*) FROM t WHERE id IN (1, 5, 9, 42)" with
  | Sql.Rows { rows = [ [| Value.Int 3 |] ]; _ } -> ()
  | _ -> Alcotest.fail "in list"

let test_sql_create_index_and_plan () =
  let db = Database.create Store.Hazel in
  ignore (exec_ok db "CREATE TABLE t (id INT, city TEXT)");
  for i = 1 to 200 do
    ignore
      (exec_ok db
         (Printf.sprintf "INSERT INTO t VALUES (%d, '%s')" i
            (if i mod 2 = 0 then "even" else "odd")))
  done;
  ignore (exec_ok db "CREATE INDEX city_idx ON t (city)");
  ignore (Storage.Database.take_cost db);
  (match exec_ok db "SELECT id FROM t WHERE city = 'even'" with
  | Sql.Rows { rows; _ } -> Alcotest.(check int) "indexed select" 100 (List.length rows)
  | _ -> Alcotest.fail "rows expected");
  let indexed_cost = Storage.Database.take_cost db in
  (* Same query without the index support: compare against a scan on an
     unindexed column with the same selectivity. *)
  (match exec_ok db "SELECT id FROM t WHERE city <> 'odd'" with
  | Sql.Rows { rows; _ } -> Alcotest.(check int) "scan select" 100 (List.length rows)
  | _ -> Alcotest.fail "rows expected");
  let scan_cost = Storage.Database.take_cost db in
  Alcotest.(check bool) "planner used the cheaper index path" true
    (indexed_cost < scan_cost *. 200.0 && indexed_cost > 0.0);
  Alcotest.(check (list string)) "indexed_columns" [ "CITY" ]
    (Storage.Database.indexed_columns db "T")

(* Parser round-trip: print then re-parse equals the original AST. *)
let sql_corpus =
  [
    "SELECT * FROM t";
    "SELECT a, b FROM t WHERE (a = 1) AND (b < 'x') ORDER BY a ASC LIMIT 5";
    "INSERT INTO t (a, b) VALUES (1, 'it''s'), (2, NULL)";
    "UPDATE t SET a = (a + 1), b = 'y' WHERE NOT (a >= 10)";
    "DELETE FROM t WHERE (a <> 3) OR (b = TRUE)";
    "SELECT COUNT(*), SUM(a), MIN(a), MAX(b), AVG(c) FROM t";
    "SELECT * FROM t WHERE (a BETWEEN 1 AND 9) AND (b IN (1, 'x', NULL))";
    "CREATE INDEX ON t (a)";
    "CREATE TABLE t (a INT, b TEXT, c FLOAT, d BOOL, PRIMARY KEY (a, b))";
    "BEGIN";
    "COMMIT";
    "ROLLBACK";
  ]

let test_sql_roundtrip () =
  List.iter
    (fun sql ->
      match Storage.Sql_parser.parse sql with
      | Error e -> Alcotest.fail (sql ^ ": " ^ e)
      | Ok ast -> (
          let printed = Storage.Sql_ast.to_string ast in
          match Storage.Sql_parser.parse printed with
          | Error e -> Alcotest.fail (printed ^ ": " ^ e)
          | Ok ast2 ->
              Alcotest.(check bool)
                (sql ^ " round-trips") true (ast = ast2)))
    sql_corpus

let prop_value_codec_roundtrip =
  let gen_value =
    QCheck.Gen.(
      frequency
        [
          (1, return Value.Null);
          (3, map (fun i -> Value.Int i) int);
          (2, map (fun f -> Value.Float f) (float_bound_exclusive 1e6));
          (3, map (fun s -> Value.Text s) (string_size (0 -- 30)));
          (1, map (fun b -> Value.Bool b) bool);
        ])
  in
  QCheck.Test.make ~name:"shadowdb value codec round-trips" ~count:300
    (QCheck.make ~print:Value.to_string gen_value)
    (fun v ->
      match Shadowdb.Codec.decode_value (Shadowdb.Codec.encode_value v) with
      | Ok (v', "") -> Value.equal v v'
      | Ok _ | Error _ -> false)

let () =
  let qt = QCheck_alcotest.to_alcotest in
  Alcotest.run "storage"
    [
      ( "btree",
        [
          qt prop_btree_model;
          qt prop_btree_invariants;
          qt prop_btree_iter_sorted;
          Alcotest.test_case "bulk" `Quick test_btree_bulk;
          Alcotest.test_case "range" `Quick test_btree_range;
          Alcotest.test_case "minmax" `Quick test_btree_minmax;
        ] );
      ("avl", [ qt prop_avl_model; qt prop_avl_balanced ]);
      ("backends", [ qt prop_backends_agree ]);
      ( "database",
        [
          Alcotest.test_case "insert/get" `Quick test_db_insert_get;
          Alcotest.test_case "schema checks" `Quick test_db_schema_checks;
          Alcotest.test_case "update/delete" `Quick test_db_update_delete;
          Alcotest.test_case "rollback" `Quick test_db_rollback;
          qt prop_rollback_restores_hash;
          Alcotest.test_case "dump/load" `Quick test_db_dump_load_roundtrip;
          Alcotest.test_case "hash covers wide rows" `Quick
            test_db_hash_wide_rows;
          qt prop_hash_matches_reload;
          Alcotest.test_case "cost accounting" `Quick test_db_cost_accounting;
        ] );
      ( "indexes",
        [
          Alcotest.test_case "lookup" `Quick test_index_lookup;
          Alcotest.test_case "maintained by writes" `Quick
            test_index_maintained_by_writes;
          Alcotest.test_case "maintained by rollback" `Quick
            test_index_maintained_by_rollback;
          qt prop_index_agrees_with_scan;
        ] );
      ( "locks",
        [
          Alcotest.test_case "table level" `Quick test_lock_table_level;
          Alcotest.test_case "row level" `Quick test_lock_row_level;
          Alcotest.test_case "fifo + reentrant" `Quick test_lock_fifo_and_reentrant;
          Alcotest.test_case "cancel" `Quick test_lock_cancel;
        ] );
      ( "sql",
        [
          Alcotest.test_case "end to end" `Quick test_sql_end_to_end;
          Alcotest.test_case "txn statements" `Quick test_sql_txn_stmts;
          Alcotest.test_case "errors" `Quick test_sql_errors;
          Alcotest.test_case "limit/order" `Quick test_sql_limit_and_star_order;
          Alcotest.test_case "aggregates" `Quick test_sql_aggregates;
          Alcotest.test_case "between/in" `Quick test_sql_between_in;
          Alcotest.test_case "create index + planner" `Quick
            test_sql_create_index_and_plan;
          Alcotest.test_case "print/parse round-trip" `Quick test_sql_roundtrip;
          qt prop_value_codec_roundtrip;
        ] );
    ]
