(* The durability layer: the Cache_store spill file (round-trip,
   torn-tail and corrupted-record recovery, supersede + automatic
   compaction, the fold of per-lane files written by earlier builds,
   one descriptor per store, appends and finds from several domains,
   and close racing them), the Hashring consistent-hash properties
   that vcfront's failover correctness rests on, journal segment
   rotation (plus the append-on-reopen fix and the vcstat segment
   expansion), and the portal's disk tier warm start. *)

open Helpers
module Store = Vc_util.Cache_store
module Hashring = Vc_util.Hashring
module Journal = Vc_util.Journal
module Q = Vc_util.Journal_query
module Portal = Vc_mooc.Portal

let with_store f =
  let dir = temp_dir "vc_spill" in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () -> f dir (Store.open_store dir))

let spill_file dir = Filename.concat dir "store.spill"

(* open descriptors, where /proc lists them (Linux) *)
let fd_count () =
  if Sys.file_exists "/proc/self/fd" then
    Some (Array.length (Sys.readdir "/proc/self/fd"))
  else None

(* ------------------------------------------------------------------ *)
(* spill store                                                         *)
(* ------------------------------------------------------------------ *)

(* arbitrary binary-ish keys and payloads, including empties, newlines
   and NULs - the record format must not care *)
let arbitrary_entries =
  QCheck.(
    list_of_size Gen.(int_range 1 40)
      (pair (string_of_size Gen.(int_range 0 24)) (string_of_size Gen.(int_range 0 200))))

let store_tests =
  [
    prop ~count:50 "spill round-trips arbitrary entries across reopen"
      arbitrary_entries
      (fun entries ->
        let dir = temp_dir "vc_spill" in
        Fun.protect
          ~finally:(fun () -> rm_rf dir)
          (fun () ->
            let st = Store.open_store dir in
            List.iter (fun (k, v) -> Store.append st ~key:k v) entries;
            (* latest append per key wins *)
            let expect = Hashtbl.create 16 in
            List.iter (fun (k, v) -> Hashtbl.replace expect k v) entries;
            let ok_live =
              Hashtbl.fold
                (fun k v acc -> acc && Store.find st k = Some v)
                expect true
            in
            Store.close st;
            (* reopen replays the files; every entry must come back
               byte-identical *)
            let st2 = Store.open_store dir in
            let ok_reopen =
              Hashtbl.fold
                (fun k v acc -> acc && Store.find st2 k = Some v)
                expect true
            in
            let ok_len = Store.length st2 = Hashtbl.length expect in
            Store.close st2;
            ok_live && ok_reopen && ok_len));
    tc "torn tail is truncated away; earlier records survive" (fun () ->
        let dir = temp_dir "vc_spill" in
        Fun.protect
          ~finally:(fun () -> rm_rf dir)
          (fun () ->
            let st = Store.open_store dir in
            Store.append st ~key:"alpha" "first payload";
            Store.append st ~key:"beta" "second payload";
            Store.close st;
            (* chop a few bytes off the spill file, as a kill mid-write
               would *)
            let size = (Unix.stat (spill_file dir)).Unix.st_size in
            let fd = Unix.openfile (spill_file dir) [ Unix.O_WRONLY ] 0 in
            Unix.ftruncate fd (size - 3);
            Unix.close fd;
            let st = Store.open_store dir in
            check Alcotest.(option string) "first record intact"
              (Some "first payload") (Store.find st "alpha");
            check Alcotest.(option string) "torn record dropped" None
              (Store.find st "beta");
            (* the file was truncated back to the valid prefix, so new
               appends land cleanly after it *)
            Store.append st ~key:"gamma" "third payload";
            Store.close st;
            let st = Store.open_store dir in
            check Alcotest.(option string) "append after recovery"
              (Some "third payload") (Store.find st "gamma");
            check Alcotest.int "two live keys" 2 (Store.length st);
            Store.close st));
    tc "a corrupted record is dropped, the prefix before it kept" (fun () ->
        let dir = temp_dir "vc_spill" in
        Fun.protect
          ~finally:(fun () -> rm_rf dir)
          (fun () ->
            let st = Store.open_store dir in
            Store.append st ~key:"keep" "kept payload";
            let last_good = Store.file_bytes st in
            Store.append st ~key:"bad" "soon to be damaged";
            Store.close st;
            (* flip one payload byte inside the second record *)
            let fd = Unix.openfile (spill_file dir) [ Unix.O_WRONLY ] 0 in
            ignore (Unix.lseek fd (last_good + 12) Unix.SEEK_SET);
            ignore (Unix.write fd (Bytes.make 1 '\xff') 0 1);
            Unix.close fd;
            let st = Store.open_store dir in
            check Alcotest.(option string) "prefix intact"
              (Some "kept payload") (Store.find st "keep");
            check Alcotest.(option string) "damaged record absent" None
              (Store.find st "bad");
            Store.close st));
    tc "re-appending supersedes and compaction reclaims dead bytes"
      (fun () ->
        (* 40 records of 64 KiB for one key: without compaction the file
           would hold 2.5 MiB, nearly all of it dead *)
        let version i = String.make 65536 (Char.chr (64 + i)) in
        let record_bytes key v = 8 + String.length key + String.length v + 4 in
        with_store (fun dir st ->
            for i = 1 to 40 do
              Store.append st ~key:"hot" (version i)
            done;
            Store.append st ~key:"cold" "stable";
            check Alcotest.(option string) "latest wins" (Some (version 40))
              (Store.find st "hot");
            check Alcotest.int "two live keys" 2 (Store.length st);
            let live =
              record_bytes "hot" (version 40) + record_bytes "cold" "stable"
            in
            check Alcotest.bool "compacted to within 1 MiB of the live bytes"
              true
              (Store.file_bytes st <= live + (1 lsl 20));
            Store.close st;
            let st = Store.open_store dir in
            check Alcotest.(option string) "hot survives compaction"
              (Some (version 40)) (Store.find st "hot");
            check Alcotest.(option string) "cold survives compaction"
              (Some "stable") (Store.find st "cold");
            Store.close st));
    tc "open passes every verified record once, in file order" (fun () ->
        with_store (fun dir st ->
            for i = 0 to 19 do
              Store.append st ~key:(Printf.sprintf "k%d" i)
                (Printf.sprintf "v%d" i)
            done;
            Store.append st ~key:"k7" "v7 again";
            Store.close st;
            let seen = ref [] in
            let st =
              Store.open_store dir ~on_record:(fun k payload ->
                  seen := (k, payload ()) :: !seen)
            in
            let seen = List.rev !seen in
            check Alcotest.int "21 records" 21 (List.length seen);
            check Alcotest.(list string) "k7's records, oldest first"
              [ "v7"; "v7 again" ]
              (List.filter_map
                 (fun (k, v) -> if k = "k7" then Some v else None)
                 seen);
            check Alcotest.(option string) "payload matches" (Some "v3")
              (List.assoc_opt "k3" seen);
            check Alcotest.int "20 live keys" 20 (Store.length st);
            Store.close st));
    tc "open reads across buffer refills and records longer than it"
      (fun () ->
        (* a ~350 KB file: small records straddle the 64 KiB refills,
           and one 200 KB record is longer than the buffer *)
        with_store (fun dir st ->
            let expect =
              List.init 1000 (fun i ->
                  ( string_of_int i,
                    String.make (100 + (i mod 50)) (Char.chr (65 + (i mod 26)))
                  ))
              @ [ ("big", String.init 200_000 (fun j -> Char.chr (j mod 256))) ]
              @ List.init 10 (fun i -> (Printf.sprintf "after %d" i, "tail"))
            in
            List.iter (fun (k, v) -> Store.append st ~key:k v) expect;
            Store.close st;
            let seen = ref [] in
            let st =
              Store.open_store dir ~on_record:(fun k payload ->
                  seen := (k, payload ()) :: !seen)
            in
            check Alcotest.int "every record passed" (List.length expect)
              (List.length !seen);
            check Alcotest.bool "payloads passed intact, in file order" true
              (List.rev !seen = expect);
            check Alcotest.bool "every payload found" true
              (List.for_all (fun (k, v) -> Store.find st k = Some v) expect);
            Store.close st));
    tc "closed store raises instead of corrupting" (fun () ->
        with_store (fun _dir st ->
            Store.close st;
            check Alcotest.bool "append raises" true
              (match Store.append st ~key:"k" "v" with
              | exception Invalid_argument _ -> true
              | () -> false)));
    tc "per-lane files from earlier builds fold into the spill file"
      (fun () ->
        (* two stores' spill files, renamed to lane names, stand in for
           the lanes an earlier build wrote: same record format *)
        let lane_records lane =
          List.init 30 (fun i ->
              ( Printf.sprintf "lane %d key %d" lane i,
                Printf.sprintf "v%d.%d" lane i ))
        in
        let expect = lane_records 3 @ lane_records 5 in
        with_store (fun dir st ->
            Store.close st;
            Sys.remove (spill_file dir);
            List.iter
              (fun lane ->
                with_store (fun src st ->
                    List.iter
                      (fun (k, v) -> Store.append st ~key:k v)
                      (lane_records lane);
                    Store.close st;
                    Sys.rename (spill_file src)
                      (Filename.concat dir
                         (Printf.sprintf "lane-%02d.spill" lane))))
              [ 3; 5 ];
            let seen = ref [] in
            let st =
              Store.open_store dir ~on_record:(fun k payload ->
                  seen := (k, payload ()) :: !seen)
            in
            check Alcotest.int "every record passed" (List.length expect)
              (List.length !seen);
            check Alcotest.bool "each with its payload" true
              (List.for_all (fun kv -> List.mem kv !seen) expect);
            check Alcotest.bool "every key found" true
              (List.for_all (fun (k, v) -> Store.find st k = Some v) expect);
            Store.close st;
            check Alcotest.(array string) "only the spill file is left"
              [| "store.spill" |] (Sys.readdir dir);
            let st = Store.open_store dir in
            check Alcotest.bool "a reopen finds every key" true
              (List.for_all (fun (k, v) -> Store.find st k = Some v) expect);
            check Alcotest.int "and no other" (List.length expect)
              (Store.length st);
            Store.close st));
    tc "a store holds one descriptor" (fun () ->
        match fd_count () with
        | None -> ()
        | Some before ->
          with_store (fun dir st ->
              Store.append st ~key:"k" "v";
              check Alcotest.(option int) "open adds one" (Some (before + 1))
                (fd_count ());
              Store.close st;
              check Alcotest.(option int) "close removes it" (Some before)
                (fd_count ());
              let st = Store.open_store dir in
              check Alcotest.(option int) "a reopen adds one"
                (Some (before + 1)) (fd_count ());
              Store.close st));
    tc "4 domains append and find at once; a reopen reads every record"
      (fun () ->
        let key d i = Printf.sprintf "domain %d key %d" d i in
        let payload d i =
          Printf.sprintf "%d/%d:%s" d i (String.make (i mod 97) 'p')
        in
        with_store (fun dir st ->
            let found_own =
              List.init 4 (fun d ->
                  Domain.spawn (fun () ->
                      let ok = ref true in
                      for i = 0 to 499 do
                        Store.append st ~key:(key d i) (payload d i);
                        let j = i / 2 in
                        if Store.find st (key d j) <> Some (payload d j) then
                          ok := false
                      done;
                      !ok))
              |> List.map Domain.join
            in
            check Alcotest.(list bool) "each domain found its own keys"
              [ true; true; true; true ] found_own;
            Store.close st;
            let st = Store.open_store dir in
            check Alcotest.int "2,000 keys" 2000 (Store.length st);
            check Alcotest.bool "every payload reads back" true
              (List.for_all
                 (fun d ->
                   List.for_all
                     (fun i -> Store.find st (key d i) = Some (payload d i))
                     (List.init 500 Fun.id))
                 [ 0; 1; 2; 3 ]);
            Store.close st));
    tc "an operation racing close raises and writes nowhere else"
      (fun () ->
        (* 4 domains append and find until the store is closed under
           them; the closed descriptor's number is then taken by 8
           O_APPEND scratch files. A round is dirty when a domain saw an
           error other than Invalid_argument or a scratch file got
           bytes. *)
        let dirty = ref 0 in
        for _ = 1 to 50 do
          with_store (fun dir st ->
              let workers =
                List.init 4 (fun d ->
                    Domain.spawn (fun () ->
                        let rec go i =
                          match
                            let key = Printf.sprintf "%d.%d" d i in
                            Store.append st ~key (String.make 100 'x');
                            ignore (Store.find st key)
                          with
                          | () -> go (i + 1)
                          | exception Invalid_argument _ -> true
                          | exception _ -> false
                        in
                        go 0))
              in
              Unix.sleepf 0.005;
              Store.close st;
              let scratch =
                List.init 8 (fun i ->
                    Filename.concat dir (Printf.sprintf "scratch-%d" i))
              in
              let fds =
                List.map
                  (fun f ->
                    Unix.openfile f
                      [ Unix.O_WRONLY; Unix.O_APPEND; Unix.O_CREAT ]
                      0o644)
                  scratch
              in
              let clean = List.for_all Fun.id (List.map Domain.join workers) in
              List.iter Unix.close fds;
              let written =
                List.exists (fun f -> (Unix.stat f).Unix.st_size > 0) scratch
              in
              if written || not clean then incr dirty)
        done;
        check Alcotest.int "dirty rounds of 50" 0 !dirty);
  ]

(* ------------------------------------------------------------------ *)
(* consistent hashing                                                  *)
(* ------------------------------------------------------------------ *)

let keys_of n = List.init n (Printf.sprintf "session-%d")

let hashring_tests =
  [
    tc "routing is deterministic and lands on a member" (fun () ->
        let names = [ "a"; "b"; "c"; "d" ] in
        let ring = Hashring.make (List.map (fun n -> (n, ())) names) in
        List.iter
          (fun k ->
            match (Hashring.find ring k, Hashring.find ring k) with
            | Some (n1, ()), Some (n2, ()) ->
              check Alcotest.string "stable" n1 n2;
              check Alcotest.bool "member" true (List.mem n1 names)
            | _ -> Alcotest.fail "empty ring?")
          (keys_of 200));
    tc "removal remaps only the removed node's keys" (fun () ->
        (* vcfront rebuilds its ring from the live backends with [make] *)
        let ring = Hashring.make [ ("a", ()); ("b", ()); ("c", ()); ("d", ()) ] in
        let ring' = Hashring.make [ ("a", ()); ("b", ()); ("d", ()) ] in
        let moved = ref 0 in
        List.iter
          (fun k ->
            match (Hashring.find ring k, Hashring.find ring' k) with
            | Some (before, ()), Some (after, ()) ->
              if before = "c" then begin
                incr moved;
                check Alcotest.bool "remapped off c" true (after <> "c")
              end
              else check Alcotest.string "sticky" before after
            | _ -> Alcotest.fail "empty ring?")
          (keys_of 1000);
        check Alcotest.bool "c owned some keys" true (!moved > 0));
    tc "adding a node back restores the original mapping" (fun () ->
        let ring = Hashring.make [ ("a", 1); ("b", 2); ("c", 3) ] in
        (* b back in, in another order and after a stale duplicate *)
        let ring' = Hashring.make [ ("b", 0); ("c", 3); ("b", 2); ("a", 1) ] in
        List.iter
          (fun k ->
            check
              Alcotest.(option (pair string int))
              k (Hashring.find ring k) (Hashring.find ring' k))
          (keys_of 500));
    tc "every node owns a share of the keyspace" (fun () ->
        let names = [ "a"; "b"; "c"; "d"; "e" ] in
        let ring = Hashring.make (List.map (fun n -> (n, ())) names) in
        let counts = Hashtbl.create 8 in
        List.iter
          (fun k ->
            match Hashring.find ring k with
            | Some (n, ()) ->
              Hashtbl.replace counts n
                (1 + Option.value ~default:0 (Hashtbl.find_opt counts n))
            | None -> Alcotest.fail "empty ring?")
          (keys_of 2000);
        List.iter
          (fun n ->
            let c = Option.value ~default:0 (Hashtbl.find_opt counts n) in
            check Alcotest.bool (n ^ " owns keys") true (c > 0))
          names);
    tc "empty ring finds nothing; members own every key" (fun () ->
        check Alcotest.bool "find none" true
          (Hashring.find (Hashring.make []) "anything" = None);
        let ring = Hashring.make [ ("x", ()); ("y", ()) ] in
        List.iter
          (fun k ->
            check Alcotest.bool k true
              (match Hashring.find ring k with
              | Some (("x" | "y"), ()) -> true
              | Some _ | None -> false))
          (keys_of 100));
    prop ~count:200 "find always returns a member node"
      QCheck.(pair (list_of_size Gen.(int_range 0 6) (string_of_size Gen.(int_range 1 8))) string)
      (fun (names, key) ->
        let ring = Hashring.make (List.map (fun n -> (n, ())) names) in
        match Hashring.find ring key with
        | None -> names = []
        | Some (n, ()) -> List.mem n names);
  ]

(* ------------------------------------------------------------------ *)
(* journal segments                                                    *)
(* ------------------------------------------------------------------ *)

let emit_n n =
  for i = 1 to n do
    Journal.emit ~component:"durability"
      ~attrs:[ ("i", string_of_int i) ]
      "segment.test"
  done;
  Journal.flush ()

let journal_tests =
  [
    tc "segment_path inserts the index before the extension" (fun () ->
        check Alcotest.string "jsonl" "run.00003.jsonl"
          (Journal.segment_path "run.jsonl" 3);
        check Alcotest.string "nested" "/tmp/x/run.00000.jsonl"
          (Journal.segment_path "/tmp/x/run.jsonl" 0);
        check Alcotest.string "no extension" "run.00012"
          (Journal.segment_path "run" 12));
    tc "reopening an unsegmented journal appends instead of truncating"
      (fun () ->
        let file = Filename.temp_file "vc_journal" ".jsonl" in
        Fun.protect
          ~finally:(fun () -> Sys.remove file)
          (fun () ->
            Journal.open_jsonl file;
            emit_n 2;
            Journal.close_jsonl ();
            (* the restart: same path, previous events must survive *)
            Journal.open_jsonl file;
            emit_n 3;
            Journal.close_jsonl ();
            let events = (Q.load_file file).Q.events in
            check Alcotest.int "both runs present" 5 (List.length events)));
    tc "rotation produces segments vcstat expands with no seq gaps"
      (fun () ->
        let dir = temp_dir "vc_segs" in
        Fun.protect
          ~finally:(fun () -> rm_rf dir)
          (fun () ->
            let base = Filename.concat dir "run.jsonl" in
            (* tiny limit: every flush rotates *)
            Journal.open_jsonl ~segment_bytes:256 base;
            emit_n 20;
            Journal.close_jsonl ();
            let segments = Q.expand_segments [ base ] in
            check Alcotest.bool "rotated into several segments" true
              (List.length segments >= 2);
            List.iter
              (fun s ->
                check Alcotest.bool (s ^ " exists") true (Sys.file_exists s))
              segments;
            (* a second run appends new segments after the old ones *)
            Journal.open_jsonl ~segment_bytes:256 base;
            emit_n 5;
            Journal.close_jsonl ();
            let segments' = Q.expand_segments [ base ] in
            check Alcotest.bool "second run extended the set" true
              (List.length segments' > List.length segments);
            let s = Q.summarize (Q.load_files segments').Q.events in
            check Alcotest.int "no seq gaps across the union" 0 s.Q.s_seq_gaps;
            check Alcotest.bool "seqs seen" true (s.Q.s_seq_distinct > 0)));
    tc "summarize counts missing seqs as gaps" (fun () ->
        let ev seq =
          {
            Journal.ev_seq = seq;
            ev_ts = float_of_int seq;
            ev_severity = Journal.Info;
            ev_component = "x";
            ev_name = "e";
            ev_attrs = [];
          }
        in
        let s = Q.summarize [ ev 1; ev 2; ev 5 ] in
        check Alcotest.int "min" 1 s.Q.s_seq_min;
        check Alcotest.int "max" 5 s.Q.s_seq_max;
        check Alcotest.int "distinct" 3 s.Q.s_seq_distinct;
        check Alcotest.int "two missing" 2 s.Q.s_seq_gaps);
    tc "glob_match covers the star and question-mark cases" (fun () ->
        List.iter
          (fun (pat, name, expect) ->
            check Alcotest.bool
              (Printf.sprintf "%s ~ %s" pat name)
              expect
              (Q.glob_match pat name))
          [
            ("*.jsonl", "run.00001.jsonl", true);
            ("run.*.jsonl", "run.00001.jsonl", true);
            ("run.?????.jsonl", "run.00001.jsonl", true);
            ("run.????.jsonl", "run.00001.jsonl", false);
            ("*", "", true);
            ("?", "", false);
            ("run.jsonl", "run.jsonl", true);
            ("run.jsonl", "run.jsonl2", false);
          ]);
  ]

(* ------------------------------------------------------------------ *)
(* portal disk tier                                                    *)
(* ------------------------------------------------------------------ *)

let echo =
  {
    Portal.tool_name = "echo";
    description = "test tool";
    max_input_lines = 3;
    execute = (fun s -> "echo: " ^ s);
  }

(* a scratch cache dir whose spill file holds [records], in order, with
   the memory cache at [capacity]; the default capacity is restored
   after [f dir] *)
let with_stored_records ?(capacity = 512) records f =
  let dir = temp_dir "vc_portal_cache" in
  Fun.protect
    ~finally:(fun () ->
      Portal.unset_cache_dir ();
      Portal.set_cache_capacity 512;
      Portal.clear_cache ();
      rm_rf dir)
    (fun () ->
      let st = Store.open_store dir in
      List.iter
        (fun (input, out) -> Store.append st ~key:(upload_key "echo" input) out)
        records;
      Store.close st;
      Portal.unset_cache_dir ();
      Portal.set_cache_capacity capacity;
      Portal.clear_cache ();
      Vc_util.Telemetry.reset ();
      f dir)

let portal_tests =
  [
    tc "a warm start fills memory to capacity and evicts nothing" (fun () ->
        let inputs = List.init 20 (Printf.sprintf "input %d") in
        let records = List.map (fun i -> (i, "echo: " ^ i)) inputs in
        with_stored_records ~capacity:4 records (fun dir ->
            let counted = Vc_util.Telemetry.counter "portal.cache.evictions" in
            Journal.clear ();
            Portal.set_cache_dir dir;
            let warm =
              match
                List.find_opt
                  (fun e -> e.Journal.ev_name = "cache.warm_start")
                  (Journal.events ())
              with
              | Some e -> e.Journal.ev_attrs
              | None -> []
            in
            check Alcotest.int "no evictions" 0 (Portal.cache_evictions ());
            check Alcotest.int "no portal.cache.evictions counted" counted
              (Vc_util.Telemetry.counter "portal.cache.evictions");
            check Alcotest.int "memory full" 4 (Portal.cache_size ());
            check Alcotest.(option string) "entries" (Some "20")
              (List.assoc_opt "entries" warm);
            check Alcotest.(option string) "promoted" (Some "4")
              (List.assoc_opt "promoted" warm);
            check Alcotest.bool "elapsed_s" true
              (Option.is_some
                 (Option.bind
                    (List.assoc_opt "elapsed_s" warm)
                    float_of_string_opt));
            let runs = Atomic.make 0 in
            let counted_echo =
              {
                echo with
                Portal.execute =
                  (fun s ->
                    Atomic.incr runs;
                    echo.execute s);
              }
            in
            let s = Portal.create_session () in
            List.iter
              (fun i ->
                match Portal.submit_result s counted_echo i with
                | Portal.Cache_hit out ->
                  check Alcotest.string i ("echo: " ^ i) out
                | _ -> Alcotest.fail (i ^ ": expected Cache_hit"))
              inputs;
            check Alcotest.int "no execution" 0 (Atomic.get runs)));
    tc "a key stored twice warm-starts as its later record" (fun () ->
        (* one memory slot, already full when the second record for
           "twice" is read: the later record must still replace it *)
        with_stored_records ~capacity:1
          [ ("twice", "v1"); ("other", "other"); ("twice", "v2") ]
          (fun dir ->
            Portal.set_cache_dir dir;
            let s = Portal.create_session () in
            (match Portal.submit_result s echo "twice" with
            | Portal.Cache_hit out ->
              check Alcotest.string "later record" "v2" out
            | _ -> Alcotest.fail "expected Cache_hit");
            check Alcotest.int "served from memory" 0
              (Portal.cache_disk_hits ());
            match Portal.submit_result s echo "other" with
            | Portal.Cache_hit out ->
              check Alcotest.string "from disk" "other" out;
              check Alcotest.int "one disk hit" 1 (Portal.cache_disk_hits ())
            | _ -> Alcotest.fail "expected Cache_hit from disk"));
    tc "a torn last record is neither promoted nor found" (fun () ->
        with_stored_records
          [ ("whole", "echo: whole"); ("torn", "echo: torn") ]
          (fun dir ->
            let size = (Unix.stat (spill_file dir)).Unix.st_size in
            let fd = Unix.openfile (spill_file dir) [ Unix.O_WRONLY ] 0 in
            Unix.ftruncate fd (size - 3);
            Unix.close fd;
            Portal.set_cache_dir dir;
            check Alcotest.int "only the whole record promoted" 1
              (Portal.cache_size ());
            (* the torn record was 8 + 16 + 10 + 4 bytes *)
            check Alcotest.int "file truncated to the valid prefix"
              (size - 38)
              (Unix.stat (spill_file dir)).Unix.st_size;
            let s = Portal.create_session () in
            (match Portal.submit_result s echo "whole" with
            | Portal.Cache_hit out ->
              check Alcotest.string "whole" "echo: whole" out
            | _ -> Alcotest.fail "expected Cache_hit");
            match Portal.submit_result s echo "torn" with
            | Portal.Executed _ -> ()
            | _ -> Alcotest.fail "the torn record was served"));
    tc "disk tier serves memory misses and warm-starts a restart"
      (fun () ->
        let dir = temp_dir "vc_portal_cache" in
        Fun.protect
          ~finally:(fun () ->
            Portal.unset_cache_dir ();
            Portal.clear_cache ();
            rm_rf dir)
          (fun () ->
            Portal.clear_cache ();
            Vc_util.Telemetry.reset ();
            Portal.set_cache_dir dir;
            let s = Portal.create_session () in
            (match Portal.submit_result s echo "payload" with
            | Portal.Executed out ->
              check Alcotest.string "executed" "echo: payload" out
            | _ -> Alcotest.fail "expected Executed");
            (* drop the memory cache but keep the disk tier: the
               repeat submission must be served by the disk probe *)
            Portal.clear_cache ();
            (match Portal.submit_result s echo "payload" with
            | Portal.Cache_hit out ->
              check Alcotest.string "disk payload" "echo: payload" out
            | _ -> Alcotest.fail "expected Cache_hit from disk");
            check Alcotest.int "disk hit counted" 1 (Portal.cache_disk_hits ());
            (* simulate a restart: detach, clear memory, re-attach *)
            Portal.unset_cache_dir ();
            Portal.clear_cache ();
            check Alcotest.int "cold" 0 (Portal.cache_size ());
            Portal.set_cache_dir dir;
            check Alcotest.(option string) "dir recorded" (Some dir)
              (Portal.cache_dir ());
            check Alcotest.bool "warm-started into memory" true
              (Portal.cache_size () > 0);
            match Portal.submit_result s echo "payload" with
            | Portal.Cache_hit out ->
              check Alcotest.string "warm payload" "echo: payload" out
            | _ -> Alcotest.fail "expected Cache_hit after warm start"));
    tc "write-through keeps evicted results on disk" (fun () ->
        let dir = temp_dir "vc_portal_cache" in
        Fun.protect
          ~finally:(fun () ->
            Portal.unset_cache_dir ();
            Portal.clear_cache ();
            Portal.set_cache_capacity 512;
            rm_rf dir)
          (fun () ->
            Portal.clear_cache ();
            Portal.set_cache_dir dir;
            Portal.set_cache_capacity 2;
            let s = Portal.create_session () in
            ignore (Portal.submit_result s echo "one");
            ignore (Portal.submit_result s echo "two");
            ignore (Portal.submit_result s echo "three");
            (* "one" was evicted from the 2-entry memory cache, but the
               disk tier still has it *)
            check Alcotest.bool "evicted from memory" true
              (Portal.cache_size () <= 2);
            match Portal.submit_result s echo "one" with
            | Portal.Cache_hit out ->
              check Alcotest.string "spilled payload" "echo: one" out
            | Portal.Executed _ -> Alcotest.fail "lost the evicted result"
            | Portal.Rejected _ -> Alcotest.fail "rejected?"));
    tc "a warm-started entry's run resolves to its output" (fun () ->
        let dir = temp_dir "vc_portal_cache" in
        Fun.protect
          ~finally:(fun () ->
            Portal.unset_cache_dir ();
            Portal.clear_cache ();
            rm_rf dir)
          (fun () ->
            Portal.clear_cache ();
            Portal.set_cache_dir dir;
            ignore (Portal.submit_result (Portal.create_session ()) echo "warm");
            Portal.unset_cache_dir ();
            Portal.clear_cache ();
            Portal.set_cache_dir dir;
            let s = Portal.create_session () in
            (match Portal.submit_result s echo "warm" with
            | Portal.Cache_hit _ -> ()
            | _ -> Alcotest.fail "expected a warm hit");
            check
              Alcotest.(list (pair string (option string)))
              "the run" [ (upload_digest "echo" "warm", Some "echo: warm") ]
              (Portal.history s echo)));
    tc "an evicted run resolves through the disk tier; reads count nothing"
      (fun () ->
        let dir = temp_dir "vc_portal_cache" in
        Fun.protect
          ~finally:(fun () ->
            Portal.unset_cache_dir ();
            Portal.clear_cache ();
            Portal.set_cache_capacity 512;
            rm_rf dir)
          (fun () ->
            (* one memory slot: "two" evicts "one" *)
            let two_runs () =
              Portal.clear_cache ();
              Portal.set_cache_capacity 1;
              let s = Portal.create_session () in
              ignore (Portal.submit_result s echo "one");
              ignore (Portal.submit_result s echo "two");
              let stats = Portal.cache_stats ()
              and disk_hits = Portal.cache_disk_hits ()
              and size = Portal.cache_size () in
              let h = Portal.history s echo in
              check Alcotest.(pair int int) "no hit or miss counted" stats
                (Portal.cache_stats ());
              check Alcotest.int "no disk hit counted" disk_hits
                (Portal.cache_disk_hits ());
              check Alcotest.int "size unchanged" size (Portal.cache_size ());
              (* had the read promoted "one", it would have evicted "two" *)
              (match Portal.submit_result s echo "two" with
              | Portal.Cache_hit _ ->
                check Alcotest.int "\"two\" still in memory" disk_hits
                  (Portal.cache_disk_hits ())
              | _ -> Alcotest.fail "expected a cache hit");
              h
            in
            let runs = Alcotest.(list (pair string (option string))) in
            Portal.set_cache_dir dir;
            check runs "the disk tier resolves the evicted run"
              [
                (upload_digest "echo" "one", Some "echo: one");
                (upload_digest "echo" "two", Some "echo: two");
              ]
              (two_runs ());
            Portal.unset_cache_dir ();
            check runs "with no disk tier it is gone"
              [
                (upload_digest "echo" "one", None);
                (upload_digest "echo" "two", Some "echo: two");
              ]
              (two_runs ())));
    tc "a lane that fails to open leaks no descriptor" (fun () ->
        let dir = temp_dir "vc_portal_cache" in
        (* a lane to fold that is a directory: the fold fails after the
           spill file is open *)
        let bad = Filename.concat dir "lane-03.spill" in
        Unix.mkdir bad 0o755;
        Fun.protect
          ~finally:(fun () ->
            Unix.rmdir bad;
            rm_rf dir)
          (fun () ->
            Portal.unset_cache_dir ();
            let before = fd_count () in
            for _ = 1 to 10 do
              match Store.open_store dir with
              | st ->
                Store.close st;
                Alcotest.fail "opened a store with a directory lane"
              | exception (Unix.Unix_error _ | Sys_error _) -> ()
            done;
            check Alcotest.(option int) "open_store" before (fd_count ());
            for _ = 1 to 10 do
              Portal.set_cache_dir dir
            done;
            check Alcotest.(option string) "degraded to memory-only" None
              (Portal.cache_dir ());
            check Alcotest.(option int) "Portal.set_cache_dir" before
              (fd_count ())));
    tc "unset_cache_dir degrades to memory-only cleanly" (fun () ->
        Portal.clear_cache ();
        Portal.unset_cache_dir ();
        check Alcotest.(option string) "no dir" None (Portal.cache_dir ());
        let s = Portal.create_session () in
        (match Portal.submit_result s echo "solo" with
        | Portal.Executed _ -> ()
        | _ -> Alcotest.fail "expected Executed");
        match Portal.submit_result s echo "solo" with
        | Portal.Cache_hit _ -> ()
        | _ -> Alcotest.fail "expected memory Cache_hit");
  ]

let () =
  Alcotest.run "durability"
    [
      ("cache-store", store_tests);
      ("hashring", hashring_tests);
      ("journal-segments", journal_tests);
      ("portal-disk-tier", portal_tests);
    ]
