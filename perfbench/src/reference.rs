//! Plain-Rust re-implementations of the ten Stanford programs of
//! `tml_lang::stanford`, written from their TL sources. They share no
//! code with the compiler, optimizer or VM, so a result that matches is
//! evidence that the whole pipeline computed it correctly.

/// `main(n)` of the named program, or `None` for an unknown name.
pub fn stanford(name: &str, n: i64) -> Option<i64> {
    Some(match name {
        "fib" => fib(n),
        "sieve" => sieve(n),
        "towers" => towers(n),
        "bubble" => bubble(n),
        "quick" => quick(n),
        "queens" => queens(n),
        "intmm" => intmm(n),
        "perm" => perm(n),
        "tree" => tree(n),
        "mandel" => mandel(n),
        _ => return None,
    })
}

fn lcg(x: i64) -> i64 {
    (x * 1103515245 + 12345) % 2147483648
}

fn fib(n: i64) -> i64 {
    if n < 2 {
        n
    } else {
        fib(n - 1) + fib(n - 2)
    }
}

fn sieve(n: i64) -> i64 {
    let n = n as usize;
    let mut flags = vec![true; n];
    let mut count = 0;
    for i in 2..n {
        if flags[i] {
            count += 1;
            let mut j = i + i;
            while j < n {
                flags[j] = false;
                j += i;
            }
        }
    }
    count
}

fn towers(n: i64) -> i64 {
    fn hanoi(n: i64, moves: &mut i64) {
        if n > 0 {
            hanoi(n - 1, moves);
            *moves += 1;
            hanoi(n - 1, moves);
        }
    }
    let mut moves = 0;
    hanoi(n, &mut moves);
    moves
}

fn random_array(n: i64, modulus: i64) -> Vec<i64> {
    let mut seed = 74755;
    (0..n)
        .map(|_| {
            seed = lcg(seed);
            seed % modulus
        })
        .collect()
}

fn bubble(n: i64) -> i64 {
    let mut a = random_array(n, 1000);
    let n = a.len();
    for i in 0..n.saturating_sub(1) {
        for j in 0..n - 1 - i {
            if a[j] > a[j + 1] {
                a.swap(j, j + 1);
            }
        }
    }
    a[0] + a[n - 1] * 1000
}

fn quick(n: i64) -> i64 {
    fn qsort(a: &mut [i64], lo: i64, hi: i64) {
        if lo < hi {
            let pivot = a[((lo + hi) / 2) as usize];
            let (mut i, mut j) = (lo, hi);
            while i <= j {
                while a[i as usize] < pivot {
                    i += 1;
                }
                while pivot < a[j as usize] {
                    j -= 1;
                }
                if i <= j {
                    a.swap(i as usize, j as usize);
                    i += 1;
                    j -= 1;
                }
            }
            qsort(a, lo, j);
            qsort(a, i, hi);
        }
    }
    let mut a = random_array(n, 100000);
    qsort(&mut a, 0, n - 1);
    let n = n as usize;
    a[0] + a[n / 2] + a[n - 1]
}

fn queens(n: i64) -> i64 {
    fn solve(n: usize, row: usize, cols: &mut [bool], d1: &mut [bool], d2: &mut [bool]) -> i64 {
        if row == n {
            return 1;
        }
        let mut count = 0;
        for c in 0..n {
            let (a, b) = (row + c, row + n - 1 - c);
            if !cols[c] && !d1[a] && !d2[b] {
                cols[c] = true;
                d1[a] = true;
                d2[b] = true;
                count += solve(n, row + 1, cols, d1, d2);
                cols[c] = false;
                d1[a] = false;
                d2[b] = false;
            }
        }
        count
    }
    let n = n as usize;
    solve(
        n,
        0,
        &mut vec![false; n],
        &mut vec![false; 2 * n],
        &mut vec![false; 2 * n],
    )
}

fn intmm(n: i64) -> i64 {
    let n = n as usize;
    let a: Vec<i64> = (0..n * n).map(|i| (i % 7 + 1) as i64).collect();
    let b: Vec<i64> = (0..n * n).map(|i| (i % 11 + 1) as i64).collect();
    let mut c = vec![0i64; n * n];
    for i in 0..n {
        for j in 0..n {
            c[i * n + j] = (0..n).map(|q| a[i * n + q] * b[q * n + j]).sum();
        }
    }
    c[0] + c[n * n - 1]
}

fn perm(n: i64) -> i64 {
    fn permute(a: &mut [i64], n: usize, cnt: &mut i64) {
        if n == 0 {
            *cnt += 1;
        } else {
            permute(a, n - 1, cnt);
            for i in 0..n - 1 {
                a.swap(n - 1, i);
                permute(a, n - 1, cnt);
                a.swap(n - 1, i);
            }
        }
    }
    let mut a: Vec<i64> = (0..n).collect();
    let mut cnt = 0;
    permute(&mut a, n as usize, &mut cnt);
    cnt
}

fn tree(n: i64) -> i64 {
    // Arena binary search tree: (value, left, right).
    let mut nodes: Vec<(i64, Option<usize>, Option<usize>)> = Vec::new();
    let mut root: Option<usize> = None;
    let mut seed = 74755;
    for _ in 1..=n {
        seed = lcg(seed);
        let v = seed % 10000;
        let new = nodes.len();
        nodes.push((v, None, None));
        let Some(mut at) = root else {
            root = Some(new);
            continue;
        };
        loop {
            let (key, left, right) = nodes[at];
            let slot = if v < key { left } else { right };
            match slot {
                Some(next) => at = next,
                None => {
                    if v < key {
                        nodes[at].1 = Some(new);
                    } else {
                        nodes[at].2 = Some(new);
                    }
                    break;
                }
            }
        }
    }
    fn count(nodes: &[(i64, Option<usize>, Option<usize>)], at: Option<usize>) -> i64 {
        at.map_or(0, |i| {
            1 + count(nodes, nodes[i].1) + count(nodes, nodes[i].2)
        })
    }
    count(&nodes, root)
}

fn mandel(n: i64) -> i64 {
    let mut count = 0;
    for py in 0..n {
        for px in 0..n {
            let cx = px as f64 * 3.5 / n as f64 - 2.5;
            let cy = py as f64 * 2.0 / n as f64 - 1.0;
            let (mut x, mut y, mut i) = (0.0f64, 0.0f64, 0);
            while x * x + y * y <= 4.0 && i < 16 {
                let t = x * x - y * y + cx;
                y = 2.0 * x * y + cy;
                x = t;
                i += 1;
            }
            if i == 16 {
                count += 1;
            }
        }
    }
    count
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The golden values `tml_lang::stanford` pins for the four programs
    /// that have one, plus the closed forms its tests assert.
    #[test]
    fn agrees_with_the_known_checksums() {
        assert_eq!(stanford("fib", 15), Some(610));
        assert_eq!(stanford("sieve", 100), Some(25));
        assert_eq!(stanford("towers", 10), Some(1023));
        assert_eq!(stanford("queens", 6), Some(4));
        assert_eq!(stanford("queens", 8), Some(92));
        assert_eq!(stanford("perm", 4), Some(24));
        assert_eq!(stanford("tree", 60), Some(60));
    }
}
