let bounds_ms = [| 1; 2; 5; 10; 20; 50; 100; 200; 500; 1000; 2000; 5000 |]

(* One count per bound, then the overflow bucket. *)
type t = int array

let create () = Array.make (Array.length bounds_ms + 1) 0

let observe t ms =
  let n = Array.length bounds_ms in
  let rec bucket i =
    if i >= n || ms <= float_of_int bounds_ms.(i) then i else bucket (i + 1)
  in
  let i = bucket 0 in
  t.(i) <- t.(i) + 1

let to_json t =
  Json.List
    (List.init (Array.length t) (fun i ->
         let le =
           if i < Array.length bounds_ms then Json.Int bounds_ms.(i)
           else Json.Null
         in
         Json.Obj [ ("le_ms", le); ("count", Json.Int t.(i)) ]))

let of_json = function
  | Json.List buckets when List.length buckets = Array.length bounds_ms + 1 ->
    let count b =
      Option.value (Option.bind (Json.member "count" b) Json.to_int) ~default:0
    in
    Some (Array.of_list (List.map count buckets))
  | _ -> None

let add = Array.map2 ( + )
