(* Doubly-linked LRU list threaded through a hash table.  [head] is the
   most recently used entry, [tail] the eviction candidate.  Every
   operation takes the one short [lock]. *)
type node = {
  key : string;
  mutable value : string;
  mutable prev : node option;  (* towards head *)
  mutable next : node option;  (* towards tail *)
}

type t = {
  capacity : int;
  table : (string, node) Hashtbl.t;
  mutable head : node option;
  mutable tail : node option;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
  mutable promotions : int;
  mutable demotions : int;
  lock : Mutex.t;
  store : Plan_store.t option;
}

let create ~capacity ?store () =
  let capacity = max 1 capacity in
  {
    capacity;
    table = Hashtbl.create (2 * capacity);
    head = None;
    tail = None;
    hits = 0;
    misses = 0;
    evictions = 0;
    promotions = 0;
    demotions = 0;
    lock = Mutex.create ();
    store;
  }

let store t = t.store

let unlink t n =
  (match n.prev with Some p -> p.next <- n.next | None -> t.head <- n.next);
  (match n.next with Some x -> x.prev <- n.prev | None -> t.tail <- n.prev);
  n.prev <- None;
  n.next <- None

let push_front t n =
  n.next <- t.head;
  n.prev <- None;
  (match t.head with Some h -> h.prev <- Some n | None -> t.tail <- Some n);
  t.head <- Some n

let locked t f =
  Mutex.lock t.lock;
  Fun.protect f ~finally:(fun () -> Mutex.unlock t.lock)

(* Insert or refresh under the lock, evicting the LRU entry at
   capacity.  Shared by [add] and the store-promotion path. *)
let insert_locked t key value =
  match Hashtbl.find_opt t.table key with
  | Some n ->
    n.value <- value;
    unlink t n;
    push_front t n
  | None ->
    if Hashtbl.length t.table >= t.capacity then begin
      match t.tail with
      | Some lru ->
        unlink t lru;
        Hashtbl.remove t.table lru.key;
        t.evictions <- t.evictions + 1
      | None -> ()
    end;
    let n = { key; value; prev = None; next = None } in
    Hashtbl.replace t.table key n;
    push_front t n

type tier = Memory | Store

(* Memory first, then the persistent store.  A store hit is *promoted*
   into the memory tier (and counted as such) so the next lookup is a
   memory hit; the disk read happens outside the lock — a slow store
   never blocks memory traffic.  Memory-tier eviction never deletes
   from the store: the store is the bigger, slower tier. *)
let find_tier t key =
  let memory =
    locked t @@ fun () ->
    match Hashtbl.find_opt t.table key with
    | Some n ->
      t.hits <- t.hits + 1;
      unlink t n;
      push_front t n;
      Some n.value
    | None ->
      t.misses <- t.misses + 1;
      None
  in
  match memory with
  | Some v -> Some (v, Memory)
  | None -> (
    match Option.bind t.store (fun st -> Plan_store.find st key) with
    | None -> None
    | Some v ->
      locked t (fun () ->
          t.promotions <- t.promotions + 1;
          insert_locked t key v);
      Some (v, Store))

let find t key = Option.map fst (find_tier t key)

(* Write-through: every fresh plan lands in both tiers, so a restarted
   (or newly joined) process finds it on disk.  The store write happens
   outside the lock for the same reason the store read does. *)
let add t key value =
  locked t (fun () -> insert_locked t key value);
  match t.store with
  | None -> ()
  | Some st ->
    Plan_store.add st key value;
    locked t (fun () ->
        t.demotions <- t.demotions + 1)

type stats = {
  hits : int;
  misses : int;
  evictions : int;
  promotions : int;
  demotions : int;
  length : int;
  capacity : int;
}

let stats t =
  locked t @@ fun () ->
  {
    hits = t.hits;
    misses = t.misses;
    evictions = t.evictions;
    promotions = t.promotions;
    demotions = t.demotions;
    length = Hashtbl.length t.table;
    capacity = t.capacity;
  }

let store_stats t = Option.map Plan_store.stats t.store

let hit_rate s =
  let total = s.hits + s.misses in
  if total = 0 then 0.0 else float_of_int s.hits /. float_of_int total
