(* [Tq_util.Json.t] printed with every digit: the repo printer keeps
   six significant digits, too few for timestamps and timings. *)

let rec to_string (j : Tq_util.Json.t) =
  match j with
  | Number f when Float.is_integer f && Float.abs f < 1e15 -> Printf.sprintf "%.0f" f
  | Number f when Float.is_finite f -> Printf.sprintf "%.17g" f
  | Number _ -> "null"
  | List l -> "[" ^ String.concat ", " (List.map to_string l) ^ "]"
  | Obj members ->
      "{"
      ^ String.concat ", "
          (List.map
             (fun (k, v) -> Tq_util.Json.to_string (String k) ^ ": " ^ to_string v)
             members)
      ^ "}"
  | j -> Tq_util.Json.to_string j
