open Helpers
module Heap = Vc_util.Heap
module Union_find = Vc_util.Union_find
module Rng = Vc_util.Rng
module Stats = Vc_util.Stats
module Tok = Vc_util.Tok

(* ---------------------------- heap ---------------------------- *)

let heap_tests =
  [
    tc "empty heap" (fun () ->
        let h = Heap.create ~cmp:compare in
        check Alcotest.bool "is_empty" true (Heap.is_empty h);
        check Alcotest.(option int) "pop" None (Heap.pop h);
        check Alcotest.(option int) "peek" None (Heap.peek h));
    tc "pop order" (fun () ->
        let h = Heap.of_list ~cmp:compare [ 5; 1; 4; 1; 3 ] in
        check Alcotest.(list int) "sorted" [ 1; 1; 3; 4; 5 ]
          (Heap.to_sorted_list h));
    tc "peek is min" (fun () ->
        let h = Heap.of_list ~cmp:compare [ 9; 2; 7 ] in
        check Alcotest.(option int) "peek" (Some 2) (Heap.peek h);
        check Alcotest.int "length unchanged" 3 (Heap.length h));
    tc "pop_exn on empty raises" (fun () ->
        let h = Heap.create ~cmp:compare in
        Alcotest.check_raises "raises"
          (Invalid_argument "Heap.pop_exn: empty heap") (fun () ->
            ignore (Heap.pop_exn h)));
    tc "custom comparison (max-heap)" (fun () ->
        let h = Heap.of_list ~cmp:(fun a b -> compare b a) [ 1; 5; 3 ] in
        check Alcotest.(option int) "max first" (Some 5) (Heap.pop h));
    tc "clear" (fun () ->
        let h = Heap.of_list ~cmp:compare [ 1; 2 ] in
        Heap.clear h;
        check Alcotest.bool "emptied" true (Heap.is_empty h));
    prop "heap sort agrees with List.sort"
      QCheck.(list int)
      (fun xs ->
        Heap.to_sorted_list (Heap.of_list ~cmp:compare xs)
        = List.sort compare xs);
    prop "interleaved push/pop maintains order"
      QCheck.(pair (list small_int) (list small_int))
      (fun (a, b) ->
        let h = Heap.of_list ~cmp:compare a in
        let first = Heap.pop h in
        List.iter (Heap.push h) b;
        let rest = Heap.to_sorted_list h in
        match (first, List.sort compare a) with
        | None, [] -> rest = List.sort compare b
        | Some x, m :: a_rest ->
          (* popped the min of [a]; remainder is the rest of [a] plus [b] *)
          x = m && rest = List.sort compare (a_rest @ b)
        | None, _ :: _ | Some _, [] -> false);
  ]

(* ------------------------- union-find ------------------------- *)

let union_find_tests =
  [
    tc "singletons" (fun () ->
        let u = Union_find.create 4 in
        check Alcotest.int "count" 4 (Union_find.count u);
        check Alcotest.bool "not same" false (Union_find.same u 0 3));
    tc "union merges" (fun () ->
        let u = Union_find.create 4 in
        Union_find.union u 0 1;
        Union_find.union u 2 3;
        check Alcotest.int "count" 2 (Union_find.count u);
        check Alcotest.bool "0~1" true (Union_find.same u 0 1);
        check Alcotest.bool "0!~2" false (Union_find.same u 0 2);
        Union_find.union u 1 2;
        check Alcotest.bool "transitive" true (Union_find.same u 0 3);
        check Alcotest.int "count" 1 (Union_find.count u));
    tc "idempotent union" (fun () ->
        let u = Union_find.create 3 in
        Union_find.union u 0 1;
        Union_find.union u 1 0;
        check Alcotest.int "count" 2 (Union_find.count u));
    prop "count = n - distinct merges"
      QCheck.(list (pair (int_bound 19) (int_bound 19)))
      (fun pairs ->
        let u = Union_find.create 20 in
        List.iter (fun (a, b) -> Union_find.union u a b) pairs;
        (* model with naive component labels *)
        let label = Array.init 20 (fun i -> i) in
        let relabel a b =
          let la = label.(a) and lb = label.(b) in
          if la <> lb then
            Array.iteri (fun i l -> if l = lb then label.(i) <- la) label
        in
        List.iter (fun (a, b) -> relabel a b) pairs;
        let distinct =
          Array.to_list label |> List.sort_uniq compare |> List.length
        in
        Union_find.count u = distinct);
  ]

(* ----------------------------- rng ----------------------------- *)

let rng_tests =
  [
    tc "deterministic from seed" (fun () ->
        let a = Rng.create 42 and b = Rng.create 42 in
        let xs g = List.init 20 (fun _ -> Rng.int g 1000) in
        check Alcotest.(list int) "same stream" (xs a) (xs b));
    tc "different seeds differ" (fun () ->
        let a = Rng.create 1 and b = Rng.create 2 in
        let xs g = List.init 20 (fun _ -> Rng.int g 1000000) in
        check Alcotest.bool "streams differ" true (xs a <> xs b));
    tc "copy forks the stream" (fun () ->
        let a = Rng.create 7 in
        ignore (Rng.int a 10);
        let b = Rng.copy a in
        check Alcotest.int "same next" (Rng.int a 1000) (Rng.int b 1000));
    tc "int bounds" (fun () ->
        let g = Rng.create 3 in
        for _ = 1 to 1000 do
          let v = Rng.int g 7 in
          if v < 0 || v >= 7 then Alcotest.fail "out of range"
        done);
    tc "int rejects non-positive bound" (fun () ->
        let g = Rng.create 3 in
        Alcotest.check_raises "raises"
          (Invalid_argument "Rng.int: bound must be positive") (fun () ->
            ignore (Rng.int g 0)));
    tc "float bounds" (fun () ->
        let g = Rng.create 5 in
        for _ = 1 to 1000 do
          let v = Rng.float g 2.5 in
          if v < 0.0 || v >= 2.5 then Alcotest.fail "out of range"
        done);
    tc "bernoulli extremes" (fun () ->
        let g = Rng.create 11 in
        for _ = 1 to 100 do
          if Rng.bernoulli g 0.0 then Alcotest.fail "p=0 fired";
          if not (Rng.bernoulli g 1.0) then Alcotest.fail "p=1 missed"
        done);
    tc "gaussian moments" (fun () ->
        let g = Rng.create 13 in
        let xs = List.init 20000 (fun _ -> Rng.gaussian g ~mu:5.0 ~sigma:2.0) in
        let mean = Stats.mean xs in
        let sd = Stats.stddev xs in
        check Alcotest.bool "mean near 5" true (abs_float (mean -. 5.0) < 0.1);
        check Alcotest.bool "sd near 2" true (abs_float (sd -. 2.0) < 0.1));
    tc "shuffle is a permutation" (fun () ->
        let g = Rng.create 17 in
        let arr = Array.init 50 (fun i -> i) in
        Rng.shuffle g arr;
        let sorted = Array.copy arr in
        Array.sort compare sorted;
        check Alcotest.(array int) "permutation" (Array.init 50 (fun i -> i))
          sorted);
    tc "choose_weighted respects zero-ish weights" (fun () ->
        let g = Rng.create 19 in
        for _ = 1 to 200 do
          let v = Rng.choose_weighted g [ ("a", 1.0); ("b", 0.000001) ] in
          ignore v
        done;
        (* heavily skewed: 'a' must dominate *)
        let g = Rng.create 23 in
        let a_count = ref 0 in
        for _ = 1 to 1000 do
          if Rng.choose_weighted g [ ("a", 0.99); ("b", 0.01) ] = "a" then
            incr a_count
        done;
        check Alcotest.bool "skew respected" true (!a_count > 900));
    tc "split independence" (fun () ->
        let a = Rng.create 29 in
        let b = Rng.split a in
        let xs = List.init 10 (fun _ -> Rng.int a 100) in
        let ys = List.init 10 (fun _ -> Rng.int b 100) in
        check Alcotest.bool "streams differ" true (xs <> ys));
  ]

(* ---------------------------- stats ---------------------------- *)

let stats_tests =
  [
    tc "mean" (fun () ->
        check (Alcotest.float 1e-9) "mean" 2.0 (Stats.mean [ 1.0; 2.0; 3.0 ]));
    tc "stddev" (fun () ->
        check (Alcotest.float 1e-9) "sd" 2.0
          (Stats.stddev [ 2.0; 4.0; 4.0; 4.0; 5.0; 5.0; 7.0; 9.0 ]));
    tc "percentile" (fun () ->
        let xs = List.init 100 (fun i -> float_of_int (i + 1)) in
        check (Alcotest.float 1e-9) "median" 50.0 (Stats.percentile xs 50.0);
        check (Alcotest.float 1e-9) "p100" 100.0 (Stats.percentile xs 100.0);
        check (Alcotest.float 1e-9) "p1" 1.0 (Stats.percentile xs 1.0));
    tc "min max" (fun () ->
        check (Alcotest.float 1e-9) "min" (-2.0) (Stats.minimum [ 3.0; -2.0 ]);
        check (Alcotest.float 1e-9) "max" 3.0 (Stats.maximum [ 3.0; -2.0 ]));
    tc "empty data rejected" (fun () ->
        Alcotest.check_raises "raises" (Invalid_argument "Stats.mean: empty data")
          (fun () -> ignore (Stats.mean [])));
    tc "histogram covers all points" (fun () ->
        let xs = List.init 100 (fun i -> float_of_int i) in
        let h = Stats.histogram ~bins:10 xs in
        let total = Array.fold_left (fun acc (_, _, c) -> acc + c) 0 h in
        check Alcotest.int "all binned" 100 total;
        check Alcotest.int "bin count" 10 (Array.length h));
    tc "bar proportionality" (fun () ->
        check Alcotest.string "half" "#####" (Stats.bar ~width:10 5.0 10.0);
        check Alcotest.string "zero" "" (Stats.bar ~width:10 0.0 10.0);
        check Alcotest.string "clamped" "##########"
          (Stats.bar ~width:10 20.0 10.0));
  ]

(* ----------------------------- tok ----------------------------- *)

let tok_tests =
  [
    tc "split_words" (fun () ->
        check Alcotest.(list string) "basic" [ "a"; "bb"; "c" ]
          (Tok.split_words "  a\tbb  c "));
    tc "split_words empty" (fun () ->
        check Alcotest.(list string) "empty" [] (Tok.split_words "   "));
    tc "strip_comment" (fun () ->
        check Alcotest.string "stripped" "x = 1 "
          (Tok.strip_comment ~comment:'#' "x = 1 # note"));
    tc "logical_lines joins continuations" (fun () ->
        check Alcotest.(list string) "joined" [ "a b c"; "d" ]
          (Tok.logical_lines "a \\\nb \\\nc\nd\n"));
    tc "logical_lines strips comments and blanks" (fun () ->
        check Alcotest.(list string) "clean" [ "keep" ]
          (Tok.logical_lines "# all comment\n\nkeep # trailing\n"));
    tc "parse_int error names context" (fun () ->
        match Tok.parse_int ~context:"myctx" "zzz" with
        | exception Failure msg ->
          check Alcotest.bool "context present" true
            (String.length msg >= 5 && String.sub msg 0 5 = "myctx")
        | _ -> Alcotest.fail "expected failure");
    tc "parse_float accepts ints" (fun () ->
        check (Alcotest.float 1e-9) "int literal" 3.0
          (Tok.parse_float ~context:"c" "3"));
  ]

(* -------------------------- trace_ctx -------------------------- *)

module Trace_ctx = Vc_util.Trace_ctx
module Phase = Vc_util.Phase

let trace_ctx_tests =
  [
    tc "minted ids are well-formed and seeded deterministically" (fun () ->
        let id = Trace_ctx.mint (Rng.create 99) in
        check Alcotest.int "length" Trace_ctx.id_length (String.length id);
        check Alcotest.bool "valid" true (Trace_ctx.is_valid_id id);
        check Alcotest.string "same generator state, same id" id
          (Trace_ctx.mint (Rng.create 99)));
    tc "mint_deterministic is a pure function of (seed, seq)" (fun () ->
        let a = Trace_ctx.mint_deterministic ~seed:2013 ~seq:7 in
        check Alcotest.string "replayable" a
          (Trace_ctx.mint_deterministic ~seed:2013 ~seq:7);
        check Alcotest.bool "seq matters" true
          (a <> Trace_ctx.mint_deterministic ~seed:2013 ~seq:8);
        check Alcotest.bool "seed matters" true
          (a <> Trace_ctx.mint_deterministic ~seed:2014 ~seq:7);
        (* a replay's ids must not collide across a realistic range *)
        let seen = Hashtbl.create 4096 in
        for seq = 0 to 4095 do
          Hashtbl.replace seen
            (Trace_ctx.mint_deterministic ~seed:2013 ~seq) ()
        done;
        check Alcotest.int "no collisions over 4096 seqs" 4096
          (Hashtbl.length seen));
    tc "is_valid_id admits 4-64 lowercase hex, nothing else" (fun () ->
        List.iter
          (fun (id, expect) ->
            check Alcotest.bool id expect (Trace_ctx.is_valid_id id))
          [
            ("deadbeef", true); ("abcd", true); (String.make 64 'a', true);
            ("abc", false); (String.make 65 'a', false); ("", false);
            ("DEADBEEF", false); ("dead beef", false); ("xyzt", false);
            ("00c0ffee00c0ffee", true);
          ]);
    tc "of_id validates; make does not" (fun () ->
        (match Trace_ctx.of_id "NotHex!" with
        | None -> ()
        | Some _ -> Alcotest.fail "invalid id accepted");
        match Trace_ctx.of_id "deadbeef" with
        | Some t ->
          check Alcotest.string "id" "deadbeef" (Trace_ctx.id t);
          check
            Alcotest.(list (pair string string))
            "attrs carry the id"
            [ ("trace_id", "deadbeef") ]
            (Trace_ctx.to_attrs t)
        | None -> Alcotest.fail "valid id rejected");
    tc "phases accumulate in order, clamped non-negative" (fun () ->
        let t = Trace_ctx.make "deadbeef" in
        check Alcotest.(list (pair string (float 0.0))) "empty" []
          (Trace_ctx.phases t);
        Trace_ctx.record_phase t "queue" 0.25;
        Trace_ctx.record_phase t "cache" (-1.0);
        Trace_ctx.record_phase t "execute" 0.5;
        check
          Alcotest.(list (pair string (float 1e-9)))
          "oldest first, negative clamped"
          [ ("queue", 0.25); ("cache", 0.0); ("execute", 0.5) ]
          (Trace_ctx.phases t);
        check (Alcotest.float 1e-9) "total" 0.75 (Trace_ctx.phase_total t);
        check
          Alcotest.(list (pair string string))
          "phase attrs"
          [
            ("phase.queue", "0.250000"); ("phase.cache", "0.000000");
            ("phase.execute", "0.500000");
          ]
          (Trace_ctx.phase_attrs t));
    tc "with_current installs, nests and restores the ambient slot"
      (fun () ->
        check Alcotest.bool "empty outside requests" true
          (Trace_ctx.current () = None);
        check
          Alcotest.(list (pair string string))
          "no ambient attrs outside" [] (Trace_ctx.ambient_attrs ());
        let outer = Trace_ctx.make "deadbeef" in
        let inner = Trace_ctx.make "beefbeef" in
        Trace_ctx.with_current outer (fun () ->
            check Alcotest.bool "outer installed" true
              (Trace_ctx.current () = Some outer);
            Trace_ctx.with_current inner (fun () ->
                check Alcotest.bool "inner shadows" true
                  (Trace_ctx.current () = Some inner);
                Phase.run "execute" ignore);
            check Alcotest.bool "outer restored" true
              (Trace_ctx.current () = Some outer);
            check
              Alcotest.(list (pair string string))
              "ambient attrs read the installed context"
              [ ("trace_id", "deadbeef") ]
              (Trace_ctx.ambient_attrs ()));
        check Alcotest.bool "cleared after" true (Trace_ctx.current () = None);
        check
          Alcotest.(list string)
          "Phase.run hit the installed context" [ "execute" ]
          (List.map fst (Trace_ctx.phases inner));
        check Alcotest.int "and not the shadowed one" 0
          (List.length (Trace_ctx.phases outer));
        (* restoration survives an escaping exception *)
        (try
           Trace_ctx.with_current outer (fun () -> failwith "boom")
         with Failure _ -> ());
        check Alcotest.bool "restored after raise" true
          (Trace_ctx.current () = None));
    tc "each domain has its own ambient slot" (fun () ->
        let t = Trace_ctx.make "deadbeef" in
        Trace_ctx.with_current t (fun () ->
            let other =
              Domain.spawn (fun () -> Trace_ctx.current () = None)
            in
            check Alcotest.bool "spawned domain starts empty" true
              (Domain.join other);
            check Alcotest.bool "this domain unaffected" true
              (Trace_ctx.current () = Some t)));
  ]

(* ----------------------------- json ---------------------------- *)

module Json = Vc_util.Json

(* the escaping loop [Json.str] ran before it shared [Json.add_escaped]
   with the journal's line writer, kept as the oracle for both *)
let reference_str s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  "\"" ^ Buffer.contents b ^ "\""

let special_floats =
  [ 0.0; -0.0; 5e-324; 2.2250738585072014e-308; Float.nan; -.Float.nan;
    infinity; neg_infinity; 1e300; -1e-7; 0.0000005; 1786021766.253001 ]

let json_tests =
  [
    tc "parses scalars, arrays and nested objects" (fun () ->
        let j = Json.parse {| {"a": [1, -2.5, true, null], "b": {"c": "s"}} |} in
        (match Json.member "a" j with
        | Some (Json.Arr [ Json.Num 1.0; Json.Num -2.5; Json.Bool true; Json.Null ]) -> ()
        | _ -> Alcotest.fail "array mismatch");
        match Option.bind (Json.member "b" j) (Json.member "c") with
        | Some (Json.Str "s") -> ()
        | _ -> Alcotest.fail "nested member mismatch");
    tc "string escapes round-trip through str and parse" (fun () ->
        let original = "line\nwith \"quotes\", tab\t and backslash \\" in
        match Json.parse (Json.str original) with
        | Json.Str s -> check Alcotest.string "round-trip" original s
        | _ -> Alcotest.fail "not a string");
    tc "unicode escapes decode to UTF-8" (fun () ->
        match Json.parse {| "é" |} with
        | Json.Str s -> check Alcotest.string "e-acute" "\xc3\xa9" s
        | _ -> Alcotest.fail "not a string");
    tc "scientific notation and exponents parse" (fun () ->
        check Alcotest.bool "1e3" true (Json.parse "1e3" = Json.Num 1000.0);
        check Alcotest.bool "-2.5E-1" true
          (Json.parse "-2.5E-1" = Json.Num (-0.25)));
    tc "trailing garbage is rejected with a position" (fun () ->
        match Json.parse "{} x" with
        | exception Failure msg ->
          check Alcotest.bool "position in message" true
            (String.length msg > 0)
        | _ -> Alcotest.fail "expected failure");
    tc "parse_result reports malformed input as Error" (fun () ->
        check Alcotest.bool "error" true
          (match Json.parse_result "{\"unterminated\"" with
          | Error _ -> true
          | Ok _ -> false));
    tc "emitters produce parseable documents" (fun () ->
        let doc =
          Json.obj
            [
              ("name", Json.str "k\"v");
              ("n", Json.num 1.5);
              ("i", Json.int 42);
              ("l", Json.arr [ Json.int 1; Json.int 2 ]);
            ]
        in
        let j = Json.parse doc in
        check Alcotest.bool "name" true
          (Json.member "name" j = Some (Json.Str "k\"v"));
        check Alcotest.bool "i" true (Json.member "i" j = Some (Json.Num 42.0));
        check Alcotest.bool "l" true
          (Json.member "l" j = Some (Json.Arr [ Json.Num 1.0; Json.Num 2.0 ])));
    tc "member and to_num accessors" (fun () ->
        let j = Json.parse {| {"x": 3.5} |} in
        check Alcotest.(option (float 0.0)) "x" (Some 3.5)
          (Option.bind (Json.member "x" j) Json.to_num);
        check Alcotest.bool "missing member" true (Json.member "y" j = None);
        check Alcotest.bool "to_str on num" true
          (Json.to_str (Json.Num 1.0) = None));
    prop ~count:500 "str and add_escaped escape as the reference loop"
      QCheck.(triple string small_nat small_nat)
      (fun (s, i, j) ->
        let pos = min i (String.length s) in
        let len = min j (String.length s - pos) in
        let b = Buffer.create 16 in
        Buffer.add_char b '"';
        Json.add_escaped b (Bytes.of_string s) pos len;
        Buffer.add_char b '"';
        Json.str s = reference_str s
        && Buffer.contents b = reference_str (String.sub s pos len));
    (* where Printf writes nan or inf, which is not JSON, num writes null *)
    prop ~count:500 "num writes what Printf's %.6f writes"
      QCheck.(make Gen.(oneof [ float; oneofl special_floats ]))
      (fun f ->
        Json.num f
        = if Float.is_finite f then Printf.sprintf "%.6f" f else "null");
  ]

let () =
  Alcotest.run "util"
    [
      ("heap", heap_tests);
      ("union_find", union_find_tests);
      ("rng", rng_tests);
      ("stats", stats_tests);
      ("tok", tok_tests);
      ("trace_ctx", trace_ctx_tests);
      ("json", json_tests);
    ]
